#include "pdr/histogram/density_histogram.h"

#include <cassert>
#include <numeric>

#include "pdr/common/errors.h"

namespace pdr {

DensityHistogram::DensityHistogram(const Options& options)
    : grid_(options.extent, options.cells_per_side),
      horizon_(options.horizon) {
  assert(options.horizon >= 0);
  ring_.assign(horizon_ + 1,
               std::vector<Counter>(grid_.cell_count(), 0));
  slot_tick_.resize(horizon_ + 1);
  for (Tick t = 0; t <= horizon_; ++t) slot_tick_[SlotOf(t)] = t;
}

void DensityHistogram::AdvanceTo(Tick now) {
  assert(now >= now_);
  for (Tick t = now_ + 1; t <= now; ++t) {
    // The slot that held tick t-1 now represents tick t+H.
    const Tick incoming = t + horizon_;
    const int slot = SlotOf(incoming);
    std::fill(ring_[slot].begin(), ring_[slot].end(), 0);
    slot_tick_[slot] = incoming;
  }
  now_ = now;
}

void DensityHistogram::AddTrajectory(const MotionState& state, Tick from,
                                     Tick to, int delta) {
  const int m = grid_.cells_per_side();
  for (Tick t = from; t <= to; ++t) {
    const Vec2 p = state.PositionAt(t);
    if (!grid_.InDomain(p)) continue;
    const int slot = SlotOf(t);
    std::vector<Counter>& slice = ring_[slot];
    assert(slot_tick_[slot] == t);
    const int cell = grid_.CellOf(p);
    Counter& counter = slice[cell];
    assert(delta > 0 || counter > 0);
    counter = static_cast<Counter>(static_cast<int64_t>(counter) + delta);
    if (!dirty_mark_.empty()) {
      const uint32_t key = static_cast<uint32_t>(slot * m + cell / m);
      if (!dirty_mark_[key]) {
        dirty_mark_[key] = 1;
        dirty_keys_.push_back(key);
      }
    }
  }
}

void DensityHistogram::Apply(const UpdateEvent& update) {
  assert(update.tick == now_ && "updates must be applied at their tick");
  if (update.old_state) {
    // The old movement wrote ticks [old.t_ref, old.t_ref + H]; ticks before
    // now_ have been recycled already, so undo only the still-live ones.
    const Tick last = std::min(update.old_state->t_ref + horizon_,
                               now_ + horizon_);
    if (last >= now_) AddTrajectory(*update.old_state, now_, last, -1);
  }
  if (update.new_state) {
    assert(update.new_state->t_ref == now_);
    AddTrajectory(*update.new_state, now_, now_ + horizon_, +1);
  }
}

const std::vector<DensityHistogram::Counter>& DensityHistogram::Slice(
    Tick t) const {
  assert(t >= now_ && t <= now_ + horizon_ && "tick outside the horizon");
  assert(slot_tick_[SlotOf(t)] == t);
  return ring_[SlotOf(t)];
}

int64_t DensityHistogram::TotalAt(Tick t) const {
  const auto& slice = Slice(t);
  return std::accumulate(slice.begin(), slice.end(), int64_t{0});
}

namespace {
constexpr uint32_t kDhMetaMagic = 0x54534844u;  // "DHST"
}

void DensityHistogram::Serialize(std::string* out) const {
  PutPod(out, kDhMetaMagic);
  PutPod(out, static_cast<int32_t>(grid_.cells_per_side()));
  PutPod(out, horizon_);
  PutPod(out, now_);
  for (const Tick t : slot_tick_) PutPod(out, t);
  for (const std::vector<Counter>& slice : ring_) {
    out->append(reinterpret_cast<const char*>(slice.data()),
                slice.size() * sizeof(Counter));
  }
}

void DensityHistogram::Restore(ByteReader* reader) {
  if (reader->Get<uint32_t>() != kDhMetaMagic) {
    throw DecodeError("density histogram state: bad magic");
  }
  if (reader->Get<int32_t>() != grid_.cells_per_side() ||
      reader->Get<Tick>() != horizon_) {
    throw DecodeError(
        "density histogram state was checkpointed under different options");
  }
  now_ = reader->Get<Tick>();
  for (Tick& t : slot_tick_) t = reader->Get<Tick>();
  for (std::vector<Counter>& slice : ring_) {
    for (Counter& c : slice) c = reader->Get<Counter>();
  }
}

}  // namespace pdr
