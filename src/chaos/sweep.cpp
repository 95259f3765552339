#include "chaos/sweep.h"

#include <cstdio>
#include <mutex>

#include "common/parallel.h"

namespace pahoehoe::chaos {

std::string build_forensics(const core::RunResult& run,
                            size_t trace_dump_lines) {
  const auto sum = [&run](const char* name) {
    return static_cast<unsigned long long>(run.metrics.counter_sum(name));
  };
  char line[256];
  std::snprintf(
      line, sizeof(line),
      "metrics: rounds=%llu steps=%llu amr_skips=%llu converged=%llu "
      "giveups=%llu backoffs=%llu scrub_repairs=%llu amr_backlog=%zu\n",
      sum("fs_rounds_total"), sum("fs_converge_steps_total"),
      sum("fs_amr_skips_total"), sum("fs_converged_total"),
      sum("fs_giveups_total"), sum("fs_recovery_backoffs_total"),
      sum("fs_scrub_repairs_total"), run.amr_backlog_final);
  std::string out = line;
  if (!run.trace_tail.empty()) {
    std::snprintf(line, sizeof(line),
                  "trace tail (last %zu lines, %llu overflowed):\n",
                  trace_dump_lines,
                  static_cast<unsigned long long>(run.trace_overflowed));
    out += line;
    out += run.trace_tail;
  }
  if (!run.span_forensics.empty()) {
    out += "span tree of first violating version:\n";
    out += run.span_forensics;
  }
  if (!run.attribution.empty()) {
    // Names the component that inflated the tail of this failing run
    // ("83% of the gap is recovery_backoff") with concrete exemplar
    // versions to chase in version_inspector --worst.
    out += run.attribution.to_text();
  }
  return out;
}

std::string SweepResult::summary() const {
  char line[128];
  std::snprintf(line, sizeof(line),
                "chaos sweep: %zu seeds, %d failures, %d runs\n",
                outcomes.size(), failures, runs);
  std::string out = line;
  for (const SeedOutcome& outcome : outcomes) {
    if (outcome.passed) continue;
    std::snprintf(line, sizeof(line),
                  "seed %llu FAILED (%zu faults, shrunk to %zu):\n",
                  static_cast<unsigned long long>(outcome.seed),
                  outcome.schedule.size(), outcome.shrunk.size());
    out += line;
    out += outcome.audit.to_string();
    out += outcome.forensics;
    if (!outcome.shrunk.empty()) {
      out += "minimal repro (seed ";
      out += std::to_string(outcome.seed);
      out += "):\n";
      out += format_repro(outcome.shrunk);
    }
  }
  return out;
}

SweepResult run_sweep(core::RunConfig config, const SweepOptions& options) {
  const std::vector<core::FaultSpec> base_faults = config.faults;

  SweepResult result;
  if (options.seeds <= 0) return result;
  result.outcomes.resize(static_cast<size_t>(options.seeds));

  // Each seed is fully determined by (config, options, seed index), so the
  // workers never read each other's state; the mutex only serializes the
  // shared counters and the progress hook. Outcomes land in their seed's
  // slot, making the result independent of completion order.
  std::mutex mutex;
  parallel_for(options.seeds, options.jobs, [&](int i) {
    SeedOutcome outcome;
    outcome.seed = options.base_seed + static_cast<uint64_t>(i);

    outcome.schedule = base_faults;
    std::vector<core::FaultSpec> generated =
        generate_schedule(outcome.seed, config.topology, options.schedule);
    outcome.schedule.insert(outcome.schedule.end(), generated.begin(),
                            generated.end());

    core::RunConfig seed_config = config;
    seed_config.seed = outcome.seed;
    seed_config.faults = outcome.schedule;
    seed_config.telemetry.trace_capacity = options.trace_capacity;
    seed_config.telemetry.trace_dump_lines = options.trace_dump_lines;
    seed_config.telemetry.spans = options.spans;
    // Exemplars ride the spans knob: when forensics are wanted, a failing
    // seed's outcome also attributes its tail to a critical-path component.
    seed_config.telemetry.exemplars = options.spans;
    core::RunResult run = core::run_experiment(seed_config);
    int runs = 1;
    outcome.audit = run.audit;
    outcome.passed = run.audit.passed();
    if (!outcome.passed) {
      outcome.forensics = build_forensics(run, options.trace_dump_lines);
    }

    if (!outcome.passed && options.shrink_failures) {
      ShrinkResult shrunk =
          shrink_schedule(seed_config, outcome.schedule, options.shrink);
      outcome.shrunk = std::move(shrunk.schedule);
      outcome.shrink_runs = shrunk.runs;
      runs += shrunk.runs;
    }

    {
      std::lock_guard<std::mutex> lock(mutex);
      result.runs += runs;
      if (!outcome.passed) ++result.failures;
      if (options.on_seed) options.on_seed(outcome);
    }
    result.outcomes[static_cast<size_t>(i)] = std::move(outcome);
  });
  return result;
}

}  // namespace pahoehoe::chaos
