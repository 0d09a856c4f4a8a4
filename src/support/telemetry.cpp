#include "support/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "support/check.hpp"
#include "support/format.hpp"

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
  std::string str;
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
          case 'u': {  // keep the escape verbatim; metric names never use it
            if (pos_ + 4 > text_.size()) return false;
            out += "\\u";
            out.append(text_, pos_, 4);
            pos_ += 4;
            break;
          }
          default: return false;
        }
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
    if (pos_ == start) return false;
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
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
      default: out += c;
    }
  }
  return out;
}

/// Compact double rendering that std::stod round-trips well enough for
/// snapshots; integers print without a trailing ".000000".
std::string json_number(double v) {
  if (std::isnan(v) || std::isinf(v)) return "0";
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

double number_or(const JsonValue* v, double fallback) {
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number : fallback;
}

std::string string_or(const JsonValue* v, const std::string& fallback) {
  return (v != nullptr && v->kind == JsonValue::Kind::kString) ? v->str : fallback;
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

// --- LatencyHistogram -------------------------------------------------------

LatencyHistogram::LatencyHistogram(double lo, double width, std::size_t buckets)
    : hist_(lo, width, buckets) {}

void LatencyHistogram::add(double value, std::uint64_t count) {
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_ += count;
  sum_ += value * static_cast<double>(count);
  hist_.add(value, count);
}

double LatencyHistogram::percentile_locked(double q) const {
  if (count_ == 0) return 0.0;
  if (count_ == 1) return min_;  // the one sample, regardless of bucketing
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based: at least one sample must be covered,
  // so q == 0 degenerates to the minimum instead of the bucket floor.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t acc = hist_.underflow();
  if (acc >= target) return min_;
  for (std::size_t i = 0; i < hist_.bucket_count(); ++i) {
    acc += hist_.bucket(i);
    if (acc >= target) {
      const double mid =
          hist_.lo() + (static_cast<double>(i) + 0.5) * hist_.bucket_width();
      // Clamp the midpoint estimate to the exact observed range so narrow
      // distributions never report values no sample could have taken.
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;  // target mass lives in the overflow bucket: saturate at max
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
  const double wa = static_cast<double>(a.count) / static_cast<double>(out.count);
  const double wb = 1.0 - wa;
  out.p50 = std::clamp(a.p50 * wa + b.p50 * wb, out.min, out.max);
  out.p90 = std::clamp(a.p90 * wa + b.p90 * wb, out.min, out.max);
  out.p99 = std::clamp(a.p99 * wa + b.p99 * wb, out.min, out.max);
  return out;
}

HistogramSummary LatencyHistogram::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSummary s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.p50 = percentile_locked(0.50);
  s.p90 = percentile_locked(0.90);
  s.p99 = percentile_locked(0.99);
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
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Span span;
  span.name = name;
  span.cat = cat;
  span.begin_cycle = begin_cycle;
  span.end_cycle = end_cycle < begin_cycle ? begin_cycle : end_cycle;
  span.arg = arg;
  span.trace = trace;
  span.tid = this_thread_ordinal();
  span.instant = false;
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_ % ring_.size()] = span;  // overwrites the oldest whole span
  ++next_;
}

void SpanTracer::instant(const char* name, const char* cat, std::uint64_t at_cycle,
                         std::uint64_t arg, std::uint64_t trace) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Span span;
  span.name = name;
  span.cat = cat;
  span.begin_cycle = at_cycle;
  span.end_cycle = at_cycle;
  span.arg = arg;
  span.trace = trace;
  span.tid = this_thread_ordinal();
  span.instant = true;
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_ % ring_.size()] = span;
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

Counter& Telemetry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Telemetry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& Telemetry::histogram(const std::string& name, double lo, double width,
                                       std::size_t buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>(lo, width, buckets);
  return *slot;
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
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + json_number(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + json_number(h.sum) + ", \"min\": " + json_number(h.min) +
           ", \"max\": " + json_number(h.max) + ", \"p50\": " + json_number(h.p50) +
           ", \"p90\": " + json_number(h.p90) + ", \"p99\": " + json_number(h.p99) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::optional<TelemetrySnapshot> TelemetrySnapshot::from_json(const std::string& json) {
  const auto root = JsonParser(json).parse();
  if (!root || root->kind != JsonValue::Kind::kObject) return std::nullopt;
  TelemetrySnapshot snap;
  if (const JsonValue* counters = root->find("counters");
      counters != nullptr && counters->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, v] : counters->members) {
      if (v.kind != JsonValue::Kind::kNumber) return std::nullopt;
      snap.counters[name] = static_cast<std::uint64_t>(v.number);
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
      if (v.kind != JsonValue::Kind::kObject) return std::nullopt;
      HistogramSummary h;
      h.count = static_cast<std::uint64_t>(number_or(v.find("count"), 0));
      h.sum = number_or(v.find("sum"), 0);
      h.min = number_or(v.find("min"), 0);
      h.max = number_or(v.find("max"), 0);
      h.p50 = number_or(v.find("p50"), 0);
      h.p90 = number_or(v.find("p90"), 0);
      h.p99 = number_or(v.find("p99"), 0);
      snap.histograms[name] = h;
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
      if (matches(name)) table.add_row({name, std::to_string(v)});
    }
    if (table.row_count() > 0) out += table.render();
  }
  {
    TextTable table({"gauge", "value"});
    for (const auto& [name, v] : gauges) {
      if (matches(name)) table.add_row({name, fixed(v, 3)});
    }
    if (table.row_count() > 0) {
      if (!out.empty()) out += '\n';
      out += table.render();
    }
  }
  {
    TextTable table({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto& [name, h] : histograms) {
      if (!matches(name)) continue;
      table.add_row({name, std::to_string(h.count), fixed(h.mean(), 1), fixed(h.p50, 1),
                     fixed(h.p90, 1), fixed(h.p99, 1), fixed(h.max, 1)});
    }
    if (table.row_count() > 0) {
      if (!out.empty()) out += '\n';
      out += table.render();
    }
  }
  return out;
}

std::string TelemetrySnapshot::render_diff(const TelemetrySnapshot& before,
                                           const TelemetrySnapshot& after) {
  std::string out;
  {
    TextTable table({"counter", "before", "after", "delta"});
    std::map<std::string, std::uint64_t> names;  // union, deterministic order
    for (const auto& [n, v] : before.counters) names.emplace(n, 0);
    for (const auto& [n, v] : after.counters) names.emplace(n, 0);
    for (const auto& [name, unused] : names) {
      (void)unused;
      const std::uint64_t b = before.counter(name);
      const std::uint64_t a = after.counter(name);
      if (a == b) continue;
      const auto delta = static_cast<long long>(a) - static_cast<long long>(b);
      table.add_row({name, std::to_string(b), std::to_string(a),
                     (delta >= 0 ? "+" : "") + std::to_string(delta)});
    }
    if (table.row_count() > 0) out += table.render();
  }
  {
    TextTable table({"gauge", "before", "after", "delta"});
    std::map<std::string, double> names;
    for (const auto& [n, v] : before.gauges) names.emplace(n, 0);
    for (const auto& [n, v] : after.gauges) names.emplace(n, 0);
    for (const auto& [name, unused] : names) {
      (void)unused;
      const double b = before.gauge(name);
      const double a = after.gauge(name);
      if (a == b) continue;
      table.add_row({name, fixed(b, 3), fixed(a, 3),
                     (a - b >= 0 ? "+" : "") + fixed(a - b, 3)});
    }
    if (table.row_count() > 0) {
      if (!out.empty()) out += '\n';
      out += table.render();
    }
  }
  {
    TextTable table({"histogram", "count delta", "mean before", "mean after"});
    std::map<std::string, int> names;
    for (const auto& [n, v] : before.histograms) names.emplace(n, 0);
    for (const auto& [n, v] : after.histograms) names.emplace(n, 0);
    for (const auto& [name, unused] : names) {
      (void)unused;
      auto bit = before.histograms.find(name);
      auto ait = after.histograms.find(name);
      const HistogramSummary b = bit == before.histograms.end() ? HistogramSummary{} : bit->second;
      const HistogramSummary a = ait == after.histograms.end() ? HistogramSummary{} : ait->second;
      if (a.count == b.count && a.sum == b.sum) continue;
      const auto delta = static_cast<long long>(a.count) - static_cast<long long>(b.count);
      table.add_row({name, (delta >= 0 ? "+" : "") + std::to_string(delta),
                     fixed(b.mean(), 1), fixed(a.mean(), 1)});
    }
    if (table.row_count() > 0) {
      if (!out.empty()) out += '\n';
      out += table.render();
    }
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
    ev.pid = static_cast<int>(number_or(e.find("pid"), 1.0));
    ev.tid = static_cast<std::uint32_t>(number_or(e.find("tid"), 1.0));
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
