// Shared pieces of the repository benchmark (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/span.h"

namespace perfbench {

/// One reported number: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Steady-clock seconds (the clock the library's spans use).
[[nodiscard]] double now_s();
/// Median; 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> v);

/// Layer probes: per-call cost of the public mpz / group / crypto calls at
/// the workloads' shapes, for dl-test-256 and P-256. Appends
/// mpz.*, group.* and crypto.* metrics to `out`.
void run_layer_probes(std::uint64_t seed, Metrics& out);

/// Step timings of one session, read from its span stream. Every field sums
/// over all spans of that name (p2.shuffle has one span per hop).
struct StepTimes {
  double framework_begin_s = 0.0;  // absolute begin of the "framework" span
  double p1_s = 0.0;               // phase1.gain_computation
  double joint_key_s = 0.0;        // p2.joint_key
  double compare_s = 0.0;          // p2.compare wall
  double compare_task_s = 0.0;     // sum of its task.compare spans
  double shuffle_s = 0.0;          // p2.shuffle wall, all hops
  double shuffle_self_s = 0.0;     // ... minus the part its tasks cover
  double shuffle_task_s = 0.0;     // sum of its task.shuffle_hop spans
  double rank_s = 0.0;             // p3.rank
  double ss_sort_s = 0.0;          // phase2.ss_sort (SS sessions)
};
[[nodiscard]] StepTimes step_times(
    const std::vector<ppgr::runtime::SpanEvent>& events);

}  // namespace perfbench
