#include "guidance/advisor.hpp"

#include "support/format.hpp"

namespace viprof::guidance {

Advice Advisor::analyze(const core::Profile& profile, hw::EventKind event) const {
  Advice advice;
  const auto total = static_cast<double>(profile.total(event));
  if (total <= 0.0) return advice;

  auto frac = [&](core::SampleDomain d) {
    return static_cast<double>(profile.domain_total(d, event)) / total;
  };
  advice.jit_frac = frac(core::SampleDomain::kJit);
  advice.vm_frac = frac(core::SampleDomain::kBoot);
  advice.native_frac = frac(core::SampleDomain::kImage);
  advice.kernel_frac = frac(core::SampleDomain::kKernel);

  for (const core::ProfileRow& row : profile.ranked(event)) {
    const double row_frac = static_cast<double>(row.count(event)) / total;
    const std::string_view symbol = row.symbol;
    if (row.domain == core::SampleDomain::kJit &&
        row_frac >= config_.hot_method_threshold &&
        advice.hot_methods.size() < config_.max_methods &&
        symbol.find('(') == std::string_view::npos) {  // skip "(unknown ...)"
      advice.hot_methods.push_back({std::string(symbol), row_frac});
    }
    if (row.domain == core::SampleDomain::kKernel &&
        row_frac >= config_.kernel_threshold &&
        advice.kernel_hotspots.size() < config_.max_kernel &&
        symbol.find('(') == std::string_view::npos) {
      // The profiler's own kernel half is not a specialisation target.
      if (!symbol.starts_with("oprofile")) {
        advice.kernel_hotspots.push_back({std::string(symbol), row_frac});
      }
    }
  }
  return advice;
}

std::string Advice::render() const {
  std::string out;
  out += "layer breakdown: jit " + support::fixed(jit_frac * 100, 1) + "%  vm " +
         support::fixed(vm_frac * 100, 1) + "%  native " +
         support::fixed(native_frac * 100, 1) + "%  kernel " +
         support::fixed(kernel_frac * 100, 1) + "%\n";
  out += "recompile at top tier on first touch:\n";
  for (const MethodAdvice& m : hot_methods) {
    out += "  " + support::fixed(m.time_frac * 100, 1) + "%  " + m.qualified_name + "\n";
  }
  out += "kernel specialisation candidates:\n";
  for (const KernelAdvice& k : kernel_hotspots) {
    out += "  " + support::fixed(k.time_frac * 100, 1) + "%  " + k.routine + "\n";
  }
  return out;
}

}  // namespace viprof::guidance
