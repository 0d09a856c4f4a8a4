#include "support/traced_mutex.hpp"

#include <string>

namespace viprof::support::detail {

void LockInstrumentation::attach(Telemetry& telemetry) {
  if (handles_.load(std::memory_order_acquire) != nullptr) return;  // idempotent
  auto h = std::make_unique<LockTelemetry>();
  const std::string base = std::string("lock.") + name_;
  h->acquired = &telemetry.counter(base + ".acquired");
  h->contended = &telemetry.counter(base + ".contended");
  h->wait_ns = &telemetry.histogram(base + ".wait_ns");
  h->tracer = &telemetry.spans();
  storage_ = std::move(h);
  handles_.store(storage_.get(), std::memory_order_release);
}

}  // namespace viprof::support::detail
