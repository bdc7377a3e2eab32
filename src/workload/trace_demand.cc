#include "workload/trace_demand.h"

#include <cassert>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bbsched::workload {

TraceDemand::TraceDemand(std::vector<TraceSegment> segments)
    : segments_(std::move(segments)) {
  assert(!segments_.empty() && "trace needs at least one segment");
  offsets_.reserve(segments_.size());
  double weighted = 0.0;
  for (const auto& seg : segments_) {
    assert(seg.duration_us > 0.0);
    assert(seg.rate_tps >= 0.0);
    offsets_.push_back(period_);
    period_ += seg.duration_us;
    weighted += seg.duration_us * seg.rate_tps;
  }
  mean_ = weighted / period_;
}

double TraceDemand::rate(int tidx, double progress_us) const {
  // Phase-shift threads by whole segments so instances are decorrelated.
  const double shift =
      offsets_[static_cast<std::size_t>(tidx) % offsets_.size()];
  double pos = std::fmod(progress_us + shift, period_);
  if (pos < 0.0) pos += period_;
  // Linear scan: traces are short (tens of segments) and this is cold
  // relative to the bus solver.
  for (std::size_t i = segments_.size(); i-- > 0;) {
    if (pos >= offsets_[i]) return segments_[i].rate_tps;
  }
  return segments_.front().rate_tps;
}

namespace {

/// Parses a whole CSV field as a double: leading whitespace is skipped and
/// only whitespace may follow the number ("12abc" and "3x" are malformed).
bool parse_field(const std::string& field, double& out) {
  std::size_t used = 0;
  try {
    out = std::stod(field, &used);
  } catch (const std::exception&) {
    return false;
  }
  return field.find_first_not_of(" \t\r", used) == std::string::npos;
}

}  // namespace

std::vector<TraceSegment> parse_trace_csv(std::istream& in) {
  std::vector<TraceSegment> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Trim whitespace-only lines.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    std::istringstream ls(line);
    std::string dur_s, rate_s;
    if (!std::getline(ls, dur_s, ',') || !std::getline(ls, rate_s)) {
      throw std::runtime_error("trace line " + std::to_string(lineno) +
                               ": expected 'duration_us,rate_tps'");
    }
    TraceSegment seg;
    if (!parse_field(dur_s, seg.duration_us) ||
        !parse_field(rate_s, seg.rate_tps)) {
      throw std::runtime_error("trace line " + std::to_string(lineno) +
                               ": malformed number");
    }
    if (!std::isfinite(seg.duration_us) || !std::isfinite(seg.rate_tps) ||
        seg.duration_us <= 0.0 || seg.rate_tps < 0.0) {
      throw std::runtime_error(
          "trace line " + std::to_string(lineno) +
          ": duration must be finite and > 0, rate finite and >= 0");
    }
    out.push_back(seg);
  }
  if (out.empty()) {
    throw std::runtime_error("trace contains no segments");
  }
  return out;
}

std::vector<TraceSegment> load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  return parse_trace_csv(in);
}

sim::JobSpec make_trace_job(const std::string& name,
                            std::vector<TraceSegment> segments, int nthreads,
                            double work_us, double barrier_interval_us) {
  sim::JobSpec spec;
  spec.name = name;
  spec.nthreads = nthreads;
  spec.work_us = work_us;
  spec.barrier_interval_us = barrier_interval_us;
  spec.demand = std::make_shared<TraceDemand>(std::move(segments));
  return spec;
}

}  // namespace bbsched::workload
