// Step timings from a session's span stream: wall time per step, self time
// (the step's duration minus the part of it its child spans cover) and the
// summed task time that parallel efficiency divides by.
#include <algorithm>
#include <string_view>
#include <utility>

#include "perfbench.h"

namespace perfbench {
namespace {

using Interval = std::pair<double, double>;

// Length of the union of `iv`.
double covered(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

}  // namespace

StepTimes step_times(const std::vector<ppgr::runtime::SpanEvent>& events) {
  struct Frame {
    const char* name;
    double t0;
    std::vector<Interval> kids;  // direct children
  };
  StepTimes st;
  std::vector<Frame> stack;
  for (const auto& ev : events) {
    if (ev.begin) {
      if (stack.empty() && std::string_view{ev.name} == "framework")
        st.framework_begin_s = ev.t_wall;
      stack.push_back(Frame{ev.name, ev.t_wall, {}});
      continue;
    }
    if (stack.empty()) continue;  // unbalanced stream: ignore the stray end
    Frame f = std::move(stack.back());
    stack.pop_back();
    const double dur = ev.t_wall - f.t0;
    if (!stack.empty()) stack.back().kids.emplace_back(f.t0, ev.t_wall);
    double kid_sum = 0.0;
    for (const auto& [a, b] : f.kids) kid_sum += b - a;
    const std::string_view name{f.name};
    if (name == "phase1.gain_computation") {
      st.p1_s += dur;
    } else if (name == "p2.joint_key") {
      st.joint_key_s += dur;
    } else if (name == "p2.compare") {
      st.compare_s += dur;
      st.compare_task_s += kid_sum;
    } else if (name == "p2.shuffle") {
      st.shuffle_s += dur;
      st.shuffle_self_s += dur - covered(std::move(f.kids));
      st.shuffle_task_s += kid_sum;
    } else if (name == "p3.rank") {
      st.rank_s += dur;
    } else if (name == "phase2.ss_sort") {
      st.ss_sort_s += dur;
    }
  }
  return st;
}

}  // namespace perfbench
