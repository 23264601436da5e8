#include "faults/lane_table.hpp"

#include "common/math_utils.hpp"

namespace pdac::faults {

void LaneEncodeTable::rebuild(const LaneBank& bank) {
  quant_ = bank.quantizer();
  wavelengths_ = bank.wavelengths();
  const std::int32_t max_code = quant_.max_code();
  codes_ = static_cast<std::size_t>(max_code) * 2 + 1;
  table_.resize(bank.lanes() * codes_);
  qtable_.resize(bank.lanes() * codes_);
  lane_on_grid_.assign(bank.lanes(), 1u);
  for (std::size_t l = 0; l < bank.lanes(); ++l) {
    const Lane& lane = bank.lane(l);
    double* row = table_.data() + l * codes_;
    std::int16_t* qrow = qtable_.data() + l * codes_;
    for (std::size_t ci = 0; ci < codes_; ++ci) {
      const auto code = static_cast<std::int32_t>(static_cast<std::int64_t>(ci) - max_code);
      row[ci] = lane.model.encode_code(code);
      // Integer-tier snap: the amplitude must be EXACTLY some grid
      // point's decode; any analog deviation marks the lane off-grid.
      std::int32_t snapped = 0;
      if (quant_.snap_to_code(row[ci], &snapped)) {
        qrow[ci] = static_cast<std::int16_t>(snapped);
      } else {
        qrow[ci] = 0;
        lane_on_grid_[l] = 0u;
      }
    }
  }
  quant_ok_ = true;
  for (const std::uint8_t on : lane_on_grid_) {
    if (on == 0u) quant_ok_ = false;
  }
  epoch_ = bank.epoch();
  built_ = true;
}

double LaneEncodeTable::encode(std::size_t rail, std::size_t channel, double r) const {
  return amplitude(rail, channel, quant_.encode(math::clamp_unit(r)));
}

}  // namespace pdac::faults
