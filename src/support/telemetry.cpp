#include "support/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <set>

#include "support/check.hpp"
#include "support/format.hpp"
#include "support/str_scan.hpp"

namespace viprof::support {

// ---------------------------------------------------------------------------
// Minimal JSON reader. The snapshot and trace formats are emitted by this
// file, but viprof_stat must also survive hand-edited or truncated files, so
// loading goes through a real (if small) recursive-descent parser instead of
// string scanning.
namespace {

struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;  // a string's text, or a number's token as written
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse() {
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// The four hex digits of a \u escape.
  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const int digit = hex_value(text_[pos_++]);
      if (digit < 0) return false;
      out = out << 4 | static_cast<std::uint32_t>(digit);
    }
    return true;
  }

  /// Code point `cp` as UTF-8.
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | cp >> 6);
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | cp >> 12);
      out += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | cp >> 18);
      out += static_cast<char>(0x80 | (cp >> 12 & 0x3f));
      out += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            std::uint32_t cp = 0;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xdc00 && cp <= 0xdfff) return false;  // lone low surrogate
            if (cp >= 0xd800 && cp <= 0xdbff) {
              // A high surrogate must pair with a low one.
              std::uint32_t low = 0;
              if (text_.compare(pos_, 2, "\\u") != 0) return false;
              pos_ += 2;
              if (!parse_hex4(low) || low < 0xdc00 || low > 0xdfff) return false;
              cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
            }
            append_utf8(out, cp);
            break;
          }
          default: return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // a raw control byte: strict JSON wants it escaped
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // The whole token must be one finite number: "1-2" or "1e999" is damage.
    const auto [end, ec] = std::from_chars(first, last, out.number);
    if (ec != std::errc() || end != last) return false;
    out.str.assign(first, last);
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_array(JsonValue& out) {
    if (!consume('[')) return false;
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue item;
      if (!parse_value(item)) return false;
      out.items.push_back(std::move(item));
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool parse_object(JsonValue& out) {
    if (!consume('{')) return false;
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      std::string key;
      skip_ws();
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Every other control byte as \u00XX: strict readers reject it raw.
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[static_cast<unsigned char>(c) >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest text that reads back as the same double, so a snapshot's sums
/// and a trace's timestamps survive any number of write/read round trips.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

double number_or(const JsonValue* v, double fallback) {
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number : fallback;
}

std::string string_or(const JsonValue* v, const std::string& fallback) {
  return (v != nullptr && v->kind == JsonValue::Kind::kString) ? v->str : fallback;
}

/// A count field: a plain decimal integer that fits 64 bits, read from the
/// token itself. A negative, fractional, exponent-form or out-of-range
/// number (which a cast from the double would turn into undefined
/// behaviour or a wrong value) is nullopt.
std::optional<std::uint64_t> u64_of(const JsonValue* v) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return std::nullopt;
  std::uint64_t out = 0;
  const char* last = v->str.data() + v->str.size();
  const auto [end, ec] = std::from_chars(v->str.data(), last, out);
  if (ec != std::errc() || end != last) return std::nullopt;
  return out;
}

/// An optional integer field of `obj`: absent leaves `out` as it is;
/// present, it must be a u64_of() no larger than `limit`.
bool read_uint(const JsonValue& obj, const char* key, std::uint64_t limit,
               std::uint64_t& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  const std::optional<std::uint64_t> n = u64_of(v);
  if (!n || *n > limit) return false;
  out = *n;
  return true;
}

/// One histogram as to_json writes it. Rejects anything a live histogram
/// could not have produced: buckets out of the layout, out of order, empty
/// or not summing to `count`; min above max; an empty histogram with a
/// non-zero field.
std::optional<HistogramSummary> histogram_of(const JsonValue& v) {
  const std::optional<std::uint64_t> count = u64_of(v.find("count"));
  const JsonValue* buckets = v.find("buckets");
  if (!count || buckets == nullptr || buckets->kind != JsonValue::Kind::kArray)
    return std::nullopt;
  HistogramSummary h;
  for (auto [key, field] : {std::pair{"sum", &h.sum}, {"min", &h.min}, {"max", &h.max}}) {
    const JsonValue* f = v.find(key);
    if (f == nullptr || f->kind != JsonValue::Kind::kNumber) return std::nullopt;
    *field = f->number;
  }
  for (const JsonValue& b : buckets->items) {
    const std::optional<std::uint64_t> index = u64_of(b.items.size() == 2 ? &b.items[0] : nullptr);
    const std::optional<std::uint64_t> n = u64_of(b.items.size() == 2 ? &b.items[1] : nullptr);
    if (!index || !n || *index >= HistogramLayout::kBuckets || *n == 0 || *n > *count - h.count ||
        (!h.buckets.empty() && *index <= h.buckets.back().index))
      return std::nullopt;
    h.count += *n;
    h.buckets.push_back({static_cast<std::uint32_t>(*index), *n});
  }
  if (h.count != *count) return std::nullopt;
  if (h.count == 0 ? (h.sum != 0 || h.min != 0 || h.max != 0) : !(h.min <= h.max))
    return std::nullopt;
  return h;
}

/// Re-serialises a parsed value compactly. Used to carry trace-event args
/// through parse→merge verbatim (modulo whitespace) without modelling them.
std::string json_serialize(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: return json_number(v.number);
    case JsonValue::Kind::kString: return "\"" + json_escape(v.str) + "\"";
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out += ',';
        out += json_serialize(v.items[i]);
      }
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, m] : v.members) {
        if (!first) out += ',';
        first = false;
        out += "\"" + json_escape(k) + "\":" + json_serialize(m);
      }
      return out + "}";
    }
  }
  return "null";
}

/// Appends `table` to `out` (blank-line separated) unless it has no rows.
void append_table(std::string& out, const TextTable& table) {
  if (table.row_count() == 0) return;
  if (!out.empty()) out += '\n';
  table.render_to(out);
}

/// The names in either of two metric maps, sorted.
template <typename Map>
std::set<std::string> names_of(const Map& a, const Map& b) {
  std::set<std::string> out;
  for (const auto& kv : a) out.insert(kv.first);
  for (const auto& kv : b) out.insert(kv.first);
  return out;
}

/// The registry slot for `name`, created on first use.
template <typename Metric>
Metric& registered(std::mutex& mu, std::map<std::string, std::unique_ptr<Metric>>& metrics,
                   const std::string& name) {
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = metrics[name];
  if (!slot) slot = std::make_unique<Metric>();
  return *slot;
}

}  // namespace

bool json_well_formed(const std::string& text) {
  return JsonParser(text).parse().has_value();
}

std::uint32_t this_thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// --- Histograms -------------------------------------------------------------

std::uint32_t HistogramLayout::bucket_of(double value) {
  constexpr double kLow = 1.0 / static_cast<double>(1ull << -kMinExp);
  constexpr double kHigh = static_cast<double>(1ull << kMaxExp);
  if (!(value >= kLow)) return 0;  // below the range, zero, negative
  if (value >= kHigh) return kBuckets - 1;
  // A positive normal double's bits, shifted, are its biased exponent
  // followed by its top kSubBits mantissa bits: exactly the bucket number.
  constexpr std::uint64_t kFirst = static_cast<std::uint64_t>(kMinExp + 1023) << kSubBits;
  return static_cast<std::uint32_t>((std::bit_cast<std::uint64_t>(value) >> (52 - kSubBits)) -
                                    kFirst) + 1;
}

double HistogramLayout::value_of(std::uint32_t bucket) {
  if (bucket == 0) return 0.0;
  if (bucket >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  const std::uint32_t j = bucket - 1;
  const double sub = static_cast<double>(j & ((1u << kSubBits) - 1));
  return std::ldexp(1.0 + (sub + 0.5) / (1u << kSubBits),
                    kMinExp + static_cast<int>(j >> kSubBits));
}

double HistogramSummary::percentile(double q) const {
  if (count == 0) return 0.0;
  // Rank of the q-th value, 1-based: at least one value must be covered,
  // so q == 0 reports the minimum.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (const HistogramBucket& b : buckets) {
    seen += b.count;
    if (seen >= rank) return std::min(std::max(HistogramLayout::value_of(b.index), min), max);
  }
  return max;
}

HistogramSummary HistogramSummary::merged(const HistogramSummary& a,
                                          const HistogramSummary& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  HistogramSummary out;
  out.count = a.count + b.count;
  out.sum = a.sum + b.sum;
  out.min = std::min(a.min, b.min);
  out.max = std::max(a.max, b.max);
  // Both inputs are sorted by index: merge them, then add up the indices
  // both had.
  out.buckets = a.buckets;
  out.buckets.insert(out.buckets.end(), b.buckets.begin(), b.buckets.end());
  std::inplace_merge(out.buckets.begin(), out.buckets.begin() + a.buckets.size(),
                     out.buckets.end(), [](const HistogramBucket& x, const HistogramBucket& y) {
                       return x.index < y.index;
                     });
  std::size_t kept = 0;
  for (const HistogramBucket& bucket : out.buckets) {
    if (kept > 0 && out.buckets[kept - 1].index == bucket.index) {
      out.buckets[kept - 1].count += bucket.count;
    } else {
      out.buckets[kept++] = bucket;
    }
  }
  out.buckets.resize(kept);
  return out;
}

void LatencyHistogram::add(double value, std::uint64_t count) {
  if (count == 0 || std::isnan(value)) return;
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen && !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  sum_.fetch_add(value * static_cast<double>(count), std::memory_order_relaxed);
  // Release: a reader that sees this count also sees the min/max/sum above.
  buckets_[HistogramLayout::bucket_of(value)].fetch_add(count, std::memory_order_release);
}

HistogramSummary LatencyHistogram::summary() const {
  HistogramSummary s;
  for (std::uint32_t i = 0; i < HistogramLayout::kBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_acquire);
    if (n == 0) continue;
    s.buckets.push_back({i, n});
    s.count += n;
  }
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

// --- SpanTracer -------------------------------------------------------------

SpanTracer::SpanTracer(std::size_t capacity) {
  VIPROF_CHECK(capacity > 0);
  ring_.resize(capacity);
}

void SpanTracer::record(const char* name, const char* cat, std::uint64_t begin_cycle,
                        std::uint64_t end_cycle, std::uint64_t arg,
                        std::uint64_t trace) {
  push(Span{name, cat, begin_cycle, std::max(begin_cycle, end_cycle), arg, trace, 0, false});
}

void SpanTracer::instant(const char* name, const char* cat, std::uint64_t at_cycle,
                         std::uint64_t arg, std::uint64_t trace) {
  push(Span{name, cat, at_cycle, at_cycle, arg, trace, 0, true});
}

void SpanTracer::push(Span span) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  span.tid = this_thread_ordinal();
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_ % ring_.size()] = span;  // overwrites the oldest whole span
  ++next_;
}

std::vector<Span> SpanTracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  const std::size_t live = static_cast<std::size_t>(
      std::min<std::uint64_t>(next_, ring_.size()));
  out.reserve(live);
  const std::uint64_t first = next_ - live;
  for (std::uint64_t i = first; i < next_; ++i) out.push_back(ring_[i % ring_.size()]);
  return out;
}

std::uint64_t SpanTracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

std::uint64_t SpanTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ > ring_.size() ? next_ - ring_.size() : 0;
}

std::string SpanTracer::to_chrome_json(double cycles_per_us, int pid) const {
  VIPROF_CHECK(cycles_per_us > 0.0);
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : all) {
    if (!first) out += ',';
    first = false;
    const double ts = static_cast<double>(s.begin_cycle) / cycles_per_us;
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" + json_escape(s.cat) +
           "\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(s.tid) + ",\"ts\":" + json_number(ts);
    if (s.instant) {
      out += ",\"ph\":\"i\",\"s\":\"g\"";
    } else {
      const double dur =
          static_cast<double>(s.end_cycle - s.begin_cycle) / cycles_per_us;
      out += ",\"ph\":\"X\",\"dur\":" + json_number(dur);
    }
    if (s.arg != kNoArg || s.trace != 0) {
      out += ",\"args\":{";
      bool first_arg = true;
      if (s.arg != kNoArg) {
        out += "\"epoch\":" + std::to_string(s.arg);
        first_arg = false;
      }
      if (s.trace != 0) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(s.trace));
        out += std::string(first_arg ? "" : ",") + "\"trace\":\"" + hex + "\"";
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

// --- Telemetry registry -----------------------------------------------------

Counter& Telemetry::counter(const std::string& name) { return registered(mu_, counters_, name); }
Gauge& Telemetry::gauge(const std::string& name) { return registered(mu_, gauges_, name); }
LatencyHistogram& Telemetry::histogram(const std::string& name) {
  return registered(mu_, histograms_, name);
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) snap.histograms[name] = h->summary();
  }
  // The ring's own accounting, injected so truncated traces show up in
  // every snapshot/diff (tracer_ has its own lock; taken outside mu_).
  snap.counters["telemetry.spans.recorded"] = tracer_.recorded();
  snap.counters["telemetry.spans.dropped"] = tracer_.dropped();
  return snap;
}

// --- TelemetrySnapshot ------------------------------------------------------

std::string TelemetrySnapshot::to_json() const {
  std::string out = "{\n";
  const auto section = [&out](const char* title, const auto& metrics, const auto& text,
                              const char* end) {
    out += std::string("  \"") + title + "\": {";
    bool first = true;
    for (const auto& [name, v] : metrics) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + json_escape(name) + "\": " + text(v);
    }
    out += (first ? "}" : "\n  }") + std::string(end);
  };
  section("counters", counters, [](std::uint64_t v) { return std::to_string(v); }, ",\n");
  section("gauges", gauges, json_number, ",\n");
  // p50/p90/p99 are for readers of the file; from_json derives them from
  // the buckets again.
  section("histograms", histograms, [](const HistogramSummary& h) {
    std::string text = "{\"count\": " + std::to_string(h.count) + ", \"sum\": " +
                       json_number(h.sum) + ", \"min\": " + json_number(h.min) +
                       ", \"max\": " + json_number(h.max) + ", \"p50\": " +
                       json_number(h.p50()) + ", \"p90\": " + json_number(h.p90()) +
                       ", \"p99\": " + json_number(h.p99()) + ", \"buckets\": [";
    for (const HistogramBucket& b : h.buckets) {
      if (&b != &h.buckets.front()) text += ", ";
      text += "[" + std::to_string(b.index) + ", " + std::to_string(b.count) + "]";
    }
    return text + "]}";
  }, "\n");
  return out + "}\n";
}

std::optional<TelemetrySnapshot> TelemetrySnapshot::from_json(const std::string& json) {
  const auto root = JsonParser(json).parse();
  if (!root || root->kind != JsonValue::Kind::kObject) return std::nullopt;
  TelemetrySnapshot snap;
  if (const JsonValue* counters = root->find("counters");
      counters != nullptr && counters->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, v] : counters->members) {
      const std::optional<std::uint64_t> n = u64_of(&v);
      if (!n) return std::nullopt;
      snap.counters[name] = *n;
    }
  }
  if (const JsonValue* gauges = root->find("gauges");
      gauges != nullptr && gauges->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, v] : gauges->members) {
      if (v.kind != JsonValue::Kind::kNumber) return std::nullopt;
      snap.gauges[name] = v.number;
    }
  }
  if (const JsonValue* hists = root->find("histograms");
      hists != nullptr && hists->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, v] : hists->members) {
      std::optional<HistogramSummary> h = histogram_of(v);
      if (!h) return std::nullopt;
      snap.histograms[name] = std::move(*h);
    }
  }
  return snap;
}

std::string TelemetrySnapshot::render_text(const std::string& prefix) const {
  auto matches = [&prefix](const std::string& name) {
    return prefix.empty() || name.compare(0, prefix.size(), prefix) == 0;
  };
  std::string out;
  {
    TextTable table({"counter", "value"});
    for (const auto& [name, v] : counters) {
      if (matches(name)) table.cell(name).cell(v).end_row();
    }
    append_table(out, table);
  }
  {
    TextTable table({"gauge", "value"});
    for (const auto& [name, v] : gauges) {
      if (matches(name)) table.cell(name).cell_fixed(v, 3).end_row();
    }
    append_table(out, table);
  }
  {
    TextTable table({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto& [name, h] : histograms) {
      if (!matches(name)) continue;
      table.cell(name).cell(h.count);
      for (const double v : {h.mean(), h.p50(), h.p90(), h.p99(), h.max}) table.cell_fixed(v, 1);
      table.end_row();
    }
    append_table(out, table);
  }
  return out;
}

std::string TelemetrySnapshot::render_diff(const TelemetrySnapshot& before,
                                           const TelemetrySnapshot& after) {
  std::string out;
  {
    TextTable table({"counter", "before", "after", "delta"});
    for (const std::string& name : names_of(before.counters, after.counters)) {
      const std::uint64_t b = before.counter(name);
      const std::uint64_t a = after.counter(name);
      if (a == b) continue;
      table.cell(name).cell(b).cell(a);
      table.cell_signed(static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b)).end_row();
    }
    append_table(out, table);
  }
  {
    TextTable table({"gauge", "before", "after", "delta"});
    for (const std::string& name : names_of(before.gauges, after.gauges)) {
      const double b = before.gauge(name);
      const double a = after.gauge(name);
      if (a == b) continue;
      table.add_row({name, fixed(b, 3), fixed(a, 3),
                     (a - b >= 0 ? "+" : "") + fixed(a - b, 3)});
    }
    append_table(out, table);
  }
  {
    TextTable table({"histogram", "count delta", "mean before", "mean after"});
    for (const std::string& name : names_of(before.histograms, after.histograms)) {
      auto bit = before.histograms.find(name);
      auto ait = after.histograms.find(name);
      const HistogramSummary b = bit == before.histograms.end() ? HistogramSummary{} : bit->second;
      const HistogramSummary a = ait == after.histograms.end() ? HistogramSummary{} : ait->second;
      if (a.count == b.count && a.sum == b.sum) continue;
      const auto delta = static_cast<long long>(a.count) - static_cast<long long>(b.count);
      table.add_row({name, (delta >= 0 ? "+" : "") + std::to_string(delta),
                     fixed(b.mean(), 1), fixed(a.mean(), 1)});
    }
    append_table(out, table);
  }
  return out.empty() ? "(no differences)\n" : out;
}

// --- Chrome-trace parse / fleet merge ---------------------------------------

std::optional<ChromeTrace> parse_chrome_trace(const std::string& json) {
  const auto root = JsonParser(json).parse();
  if (!root || root->kind != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue* events = root->find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) return std::nullopt;
  ChromeTrace out;
  out.events.reserve(events->items.size());
  for (const JsonValue& e : events->items) {
    if (e.kind != JsonValue::Kind::kObject) return std::nullopt;
    ChromeTraceEvent ev;
    ev.name = string_or(e.find("name"), "");
    ev.cat = string_or(e.find("cat"), "");
    ev.ph = string_or(e.find("ph"), "X");
    ev.ts = number_or(e.find("ts"), 0.0);
    ev.dur = number_or(e.find("dur"), 0.0);
    std::uint64_t pid = 1, tid = 1;
    if (!read_uint(e, "pid", INT_MAX, pid) || !read_uint(e, "tid", UINT32_MAX, tid))
      return std::nullopt;
    ev.pid = static_cast<int>(pid);
    ev.tid = static_cast<std::uint32_t>(tid);
    if (const JsonValue* args = e.find("args")) ev.args_json = json_serialize(*args);
    out.events.push_back(std::move(ev));
  }
  return out;
}

std::string merge_chrome_traces(
    const std::vector<std::pair<std::string, ChromeTrace>>& shards) {
  // Rebase: the earliest real event across every shard becomes ts 0, so
  // rings whose clocks started at different absolute origins share one
  // timeline. (Within a shard relative timing is already consistent.)
  double origin = 0.0;
  bool any = false;
  for (const auto& [label, trace] : shards) {
    for (const ChromeTraceEvent& e : trace.events) {
      if (e.ph == "M") continue;
      if (!any || e.ts < origin) origin = e.ts;
      any = true;
    }
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&out, &first](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += event;
  };

  int pid = 0;
  for (const auto& [label, trace] : shards) {
    ++pid;
    // Shard = process: a metadata record names the lane in the viewer.
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"ts\":0,\"args\":{\"name\":\"" + json_escape(label) + "\"}}");
    for (const ChromeTraceEvent& e : trace.events) {
      if (e.ph == "M") continue;  // superseded by our process_name records
      std::string ev = "{\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"" +
                       json_escape(e.cat) + "\",\"pid\":" + std::to_string(pid) +
                       ",\"tid\":" + std::to_string(e.tid) +
                       ",\"ts\":" + json_number(e.ts - origin) + ",\"ph\":\"" +
                       json_escape(e.ph) + "\"";
      if (e.ph == "i") ev += ",\"s\":\"g\"";
      if (e.ph == "X") ev += ",\"dur\":" + json_number(e.dur);
      if (!e.args_json.empty()) ev += ",\"args\":" + e.args_json;
      ev += '}';
      emit(ev);
    }
  }
  out += "]}";
  return out;
}

}  // namespace viprof::support
