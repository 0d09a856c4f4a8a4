// Small text-formatting helpers used by the report writers.
//
// The post-processing tools print oprofile-style fixed-width tables; these
// helpers keep that formatting in one place and out of the report logic.
// Numbers go through std::to_chars, never printf: fixed() equals
// printf("%.*f") in the C locale byte for byte, and every table renders
// from one buffer (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/hash.hpp"  // fnv1a lived here before support/hash.hpp existed

namespace viprof::support {

/// Fixed-point decimal: value with `decimals` digits after the point,
/// e.g. fixed(3.14159, 4) == "3.1416". Equal to printf("%.*f") in the C
/// locale, every digit of every finite double included.
std::string fixed(double value, int decimals);

/// fixed(), appended to `out` without a temporary.
void append_fixed(std::string& out, double value, int decimals);

/// Left-pad `s` with spaces to at least `width` characters.
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pad `s` with spaces to at least `width` characters.
std::string pad_right(const std::string& s, std::size_t width);

/// Hexadecimal address with 0x prefix, lower case, no leading zeros.
std::string hex(std::uint64_t value);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Column-aligned table writer: headers, then rows, then render().
///
/// Every cell's bytes live in one string, with one (offset, length,
/// numeric) record per cell. A row has exactly as many cells as there are
/// headers: missing cells are empty and extra ones are dropped. Rows are
/// given whole (add_row) or a cell at a time (cell*, then end_row). In
/// render(), numeric-looking cells are right-aligned and text cells
/// left-aligned; the last column is never padded.
class TextTable {
 public:
  /// `rows` and `bytes_per_row` size the buffers for the rows to come.
  TextTable(std::initializer_list<std::string_view> headers, std::size_t rows = 0,
            std::size_t bytes_per_row = 0);
  explicit TextTable(std::span<const std::string_view> headers, std::size_t rows = 0,
                     std::size_t bytes_per_row = 0);

  void add_row(std::initializer_list<std::string_view> cells);
  void add_row(std::span<const std::string> cells);

  /// Cell appenders: each fills the next cell of the open row.
  TextTable& cell(std::string_view text);
  TextTable& cell(std::uint64_t value);
  /// `a`, `sep`, `b` as one cell ("image:symbol").
  TextTable& cell(std::string_view a, char sep, std::string_view b);
  /// A signed count, with '+' before a positive value.
  TextTable& cell_signed(std::int64_t value);
  TextTable& cell_fixed(double value, int decimals);
  /// Closes the open row, filling its missing cells with empty ones.
  void end_row();

  std::string render() const;
  /// render(), appended to `out`.
  void render_to(std::string& out) const;
  std::size_t row_count() const { return rows_; }

 private:
  struct Cell {
    std::uint32_t offset;
    std::uint32_t length;
    bool numeric;
  };

  bool row_full() const { return open_ >= columns_; }
  /// Records bytes_[start, end) as the next cell of the open row.
  void close_cell(std::size_t start, bool numeric);

  std::size_t columns_ = 0;
  std::size_t rows_ = 0;  // closed rows, headers not counted
  std::size_t open_ = 0;  // cells in the open row
  std::string bytes_;
  std::vector<Cell> cells_;  // headers first, then `columns_` per row
};

}  // namespace viprof::support
