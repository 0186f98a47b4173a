#include "obs/cycle_estimator.hpp"

#include <cmath>

namespace hetgrid {

const char* obs_op_name(ObsOp op) {
  switch (op) {
    case ObsOp::kPanel:
      return "panel";
    case ObsOp::kSolve:
      return "solve";
    case ObsOp::kUpdate:
      return "update";
    case ObsOp::kAux:
      return "aux";
  }
  return "?";
}

void CycleTimeEstimator::sample(std::size_t proc, ObsOp op, double units,
                                double seconds, std::size_t step) {
  if (!(units > 0.0) || !(seconds > 0.0)) return;
  const double rate = seconds / units;
  std::lock_guard<std::mutex> lock(mu_);
  Lane& lane = lanes_[{proc, static_cast<std::uint8_t>(op)}];
  lane.ewma = lane.samples == 0
                  ? rate
                  : opt_.alpha * rate + (1.0 - opt_.alpha) * lane.ewma;
  lane.units += units;
  lane.samples += 1;
  if (!lane.armed) {
    if (lane.samples >= opt_.min_samples) {
      lane.baseline = lane.ewma;
      lane.armed = true;
    }
    return;
  }
  if (std::abs(lane.ewma - lane.baseline) >
      opt_.drift_band * std::abs(lane.baseline)) {
    drift_.push_back(DriftEvent{proc, op, step, lane.baseline, lane.ewma});
    lane.baseline = lane.ewma;  // re-arm: a settled shift fires only once
  }
}

std::vector<CycleEstimate> CycleTimeEstimator::estimates() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CycleEstimate> out;
  out.reserve(lanes_.size());
  for (const auto& [key, lane] : lanes_)
    out.push_back(CycleEstimate{key.first, static_cast<ObsOp>(key.second),
                                lane.ewma, lane.units, lane.samples});
  return out;
}

std::vector<DriftEvent> CycleTimeEstimator::drift_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_;
}

}  // namespace hetgrid
