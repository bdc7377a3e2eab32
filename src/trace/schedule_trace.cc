#include "trace/schedule_trace.h"

#include <algorithm>
#include <map>

namespace bbsched::trace {

void ScheduleTrace::occupy(std::uint64_t start_us, std::uint64_t end_us,
                           int app_id, int thread_id, int cpu) {
  if (!enabled_) return;
  if (!intervals_.empty()) {
    RunInterval& last = intervals_.back();
    if (last.thread_id == thread_id && last.cpu == cpu &&
        last.end_us == start_us) {
      last.end_us = end_us;
      return;
    }
  }
  // Try to extend a recent interval for this cpu (intervals from different
  // CPUs interleave in arrival order, so scan a small tail window).
  const std::size_t kScan = 16;
  const std::size_t begin =
      intervals_.size() > kScan ? intervals_.size() - kScan : 0;
  for (std::size_t i = intervals_.size(); i-- > begin;) {
    RunInterval& iv = intervals_[i];
    if (iv.cpu == cpu) {
      if (iv.thread_id == thread_id && iv.end_us == start_us) {
        iv.end_us = end_us;
        return;
      }
      break;  // most recent interval on this cpu is a different thread
    }
  }
  intervals_.push_back({start_us, end_us, app_id, thread_id, cpu});
}

std::vector<RunInterval> ScheduleTrace::intervals_in(std::uint64_t t0,
                                                     std::uint64_t t1) const {
  std::vector<RunInterval> out;
  for (const auto& iv : intervals_) {
    if (iv.start_us < t1 && iv.end_us > t0) out.push_back(iv);
  }
  return out;
}

bool ScheduleTrace::no_oversubscription() const {
  // Group intervals per cpu, sort by start, and check for overlap.
  std::map<int, std::vector<RunInterval>> per_cpu;
  for (const auto& iv : intervals_) per_cpu[iv.cpu].push_back(iv);
  for (auto& [cpu, ivs] : per_cpu) {
    (void)cpu;
    std::sort(ivs.begin(), ivs.end(),
              [](const RunInterval& a, const RunInterval& b) {
                return a.start_us < b.start_us;
              });
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i].start_us < ivs[i - 1].end_us) return false;
    }
  }
  return true;
}

}  // namespace bbsched::trace
