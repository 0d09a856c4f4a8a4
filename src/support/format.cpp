#include "support/format.hpp"

#include <charconv>
#include <cstring>
#include <iterator>

namespace viprof::support {

namespace {

// The longest fixed() text of a finite double: a sign, 309 integer
// digits, the point and the decimals.
constexpr int kFixedIntegerChars = 311;
constexpr int kStackDecimals = 64;

bool looks_numeric(std::string_view s) {
  bool digit_seen = false;
  for (const char c : s) {
    if (c >= '0' && c <= '9') {
      digit_seen = true;
    } else if (c != '.' && c != '-' && c != '+' && c != '%' && c != 'e') {
      return false;
    }
  }
  return digit_seen;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace

void append_fixed(std::string& out, double value, int decimals) {
  if (decimals < 0) decimals = 6;  // printf's rule for a negative precision
  if (decimals <= kStackDecimals) {
    char buf[kFixedIntegerChars + kStackDecimals];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value, std::chars_format::fixed,
                                  decimals)
                        .ptr);
    return;
  }
  const std::size_t start = out.size();
  out.resize(start + kFixedIntegerChars + static_cast<std::size_t>(decimals));
  char* const end = std::to_chars(out.data() + start, out.data() + out.size(), value,
                                  std::chars_format::fixed, decimals)
                        .ptr;
  out.resize(static_cast<std::size_t>(end - out.data()));
}

std::string fixed(double value, int decimals) {
  std::string out;
  append_fixed(out, value, decimals);
  return out;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string hex(std::uint64_t value) {
  char buf[18] = {'0', 'x'};
  return std::string(buf, std::to_chars(buf + 2, buf + sizeof buf, value, 16).ptr);
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

// ------------------------------------------------------------------ TextTable

TextTable::TextTable(std::initializer_list<std::string_view> headers, std::size_t rows,
                     std::size_t bytes_per_row)
    : TextTable(std::span<const std::string_view>(headers.begin(), headers.size()), rows,
                bytes_per_row) {}

TextTable::TextTable(std::span<const std::string_view> headers, std::size_t rows,
                     std::size_t bytes_per_row)
    : columns_(headers.size()) {
  std::size_t header_bytes = 0;
  for (const std::string_view h : headers) header_bytes += h.size();
  cells_.reserve((rows + 1) * columns_);
  bytes_.reserve(header_bytes + rows * bytes_per_row);
  for (const std::string_view h : headers) cell(h);
  open_ = 0;
}

void TextTable::close_cell(std::size_t start, bool numeric) {
  cells_.push_back(Cell{static_cast<std::uint32_t>(start),
                        static_cast<std::uint32_t>(bytes_.size() - start), numeric});
  ++open_;
}

TextTable& TextTable::cell(std::string_view text) {
  if (row_full()) return *this;
  const std::size_t start = bytes_.size();
  bytes_.append(text);
  close_cell(start, looks_numeric(text));
  return *this;
}

TextTable& TextTable::cell(std::uint64_t value) {
  if (row_full()) return *this;
  const std::size_t start = bytes_.size();
  append_u64(bytes_, value);
  close_cell(start, true);
  return *this;
}

TextTable& TextTable::cell(std::string_view a, char sep, std::string_view b) {
  if (row_full()) return *this;
  const std::size_t start = bytes_.size();
  bytes_.append(a);
  bytes_ += sep;
  bytes_.append(b);
  close_cell(start, looks_numeric(std::string_view(bytes_).substr(start)));
  return *this;
}

TextTable& TextTable::cell_signed(std::int64_t value) {
  if (row_full()) return *this;
  const std::size_t start = bytes_.size();
  if (value > 0) bytes_ += '+';
  char buf[20];
  bytes_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  close_cell(start, true);
  return *this;
}

TextTable& TextTable::cell_fixed(double value, int decimals) {
  if (row_full()) return *this;
  const std::size_t start = bytes_.size();
  append_fixed(bytes_, value, decimals);
  // "nan" and "inf" are text to the alignment rule, as they always were.
  close_cell(start, looks_numeric(std::string_view(bytes_).substr(start)));
  return *this;
}

void TextTable::end_row() {
  for (; open_ < columns_; ++open_)
    cells_.push_back(Cell{static_cast<std::uint32_t>(bytes_.size()), 0, false});
  open_ = 0;
  ++rows_;
}

void TextTable::add_row(std::initializer_list<std::string_view> cells) {
  for (const std::string_view c : cells) cell(c);
  end_row();
}

void TextTable::add_row(std::span<const std::string> cells) {
  for (const std::string& c : cells) cell(c);
  end_row();
}

std::string TextTable::render() const {
  std::string out;
  render_to(out);
  return out;
}

void TextTable::render_to(std::string& out) const {
  const std::size_t lines = rows_ + 1;  // the header line, then closed rows
  if (columns_ == 0) {
    out.append(lines, '\n');
    return;
  }
  // Widths of every padded column (all but the last), then the exact size:
  // each line is the padded columns with their "  " separators, the last
  // cell as it is, and '\n'.
  const std::size_t last = columns_ - 1;
  std::size_t narrow[16] = {};
  std::vector<std::size_t> wide(last > std::size(narrow) ? last : 0);
  std::size_t* const width = wide.empty() ? narrow : wide.data();
  std::size_t size = 0;
  for (std::size_t line = 0; line < lines; ++line) {
    const Cell* row = &cells_[line * columns_];
    for (std::size_t c = 0; c < last; ++c)
      if (row[c].length > width[c]) width[c] = row[c].length;
    size += row[last].length;
  }
  std::size_t padded = 0;
  for (std::size_t c = 0; c < last; ++c) padded += width[c] + 2;
  size += lines * (padded + 1);

  const std::size_t start = out.size();
  out.resize(start + size);
  char* p = out.data() + start;
  const char* const bytes = bytes_.data();
  for (std::size_t line = 0; line < lines; ++line) {
    const Cell* row = &cells_[line * columns_];
    for (std::size_t c = 0; c < last; ++c) {
      const Cell& cell = row[c];
      const std::size_t pad = width[c] - cell.length;
      if (cell.numeric) {
        std::memset(p, ' ', pad);
        std::memcpy(p + pad, bytes + cell.offset, cell.length);
      } else {
        std::memcpy(p, bytes + cell.offset, cell.length);
        std::memset(p + cell.length, ' ', pad);
      }
      p += width[c];
      *p++ = ' ';
      *p++ = ' ';
    }
    std::memcpy(p, bytes + row[last].offset, row[last].length);
    p += row[last].length;
    *p++ = '\n';
  }
}

}  // namespace viprof::support
