// lane_table.hpp — epoch-keyed flat coefficient table over a LaneBank's
// encoders (the faults-layer counterpart of ptc/kernel.hpp's snapshot).
//
// LaneBank::encode is a pure function of the quantized code: it clamps,
// quantizes, and evaluates the lane's PerturbedPdacModel transfer at that
// code.  A bank with W wavelengths therefore collapses into a flat
// (2W · codes) table of doubles, turning every hot-path encode from a
// multi-segment model evaluation into one LUT load, bit-identical by
// construction.
//
// The table tracks the bank's CURRENT state: it is rebuilt whenever the
// bank's epoch moves, so injected faults, re-trims and recalibrations are
// never served stale.  GuardedBackend's golden snapshot is a copy of it
// taken at a trusted calibration point (rebuild(), then amplitudes()),
// which stays pinned while the table moves on.  The same caveat as every
// epoch consumer applies (lane_bank.hpp): code that mutates lanes
// directly through lane() must bump_epoch() afterwards.
//
// Thread safety: ensure() mutates and must be called between parallel
// regions (backends call it at product entry and after every in-product
// mutation point); encode() is const and safe to call concurrently once
// the table is fresh.
#pragma once

#include <cstdint>
#include <vector>

#include "converters/quantizer.hpp"
#include "faults/lane_bank.hpp"

namespace pdac::faults {

class LaneEncodeTable {
 public:
  /// Rebuild from `bank` iff stale (never built, epoch moved, or bank
  /// geometry changed).  O(lanes · codes) when it rebuilds, O(1) when
  /// fresh — one decode token amortizes it after a single epoch bump.
  void ensure(const LaneBank& bank) {
    if (!fresh(bank)) rebuild(bank);
  }

  /// Rebuild from `bank` unconditionally — for trusted calibration
  /// points, which must read the lanes even when no epoch bump announced
  /// a change.
  void rebuild(const LaneBank& bank);

  [[nodiscard]] bool fresh(const LaneBank& bank) const {
    return built_ && epoch_ == bank.epoch() && wavelengths_ == bank.wavelengths() &&
           table_.size() == bank.lanes() * codes_;
  }

  /// LUT-backed equivalent of LaneBank::encode(rail, channel, r) —
  /// bit-identical to the model evaluation it caches.
  [[nodiscard]] double encode(std::size_t rail, std::size_t channel, double r) const;

  /// encode() with the quantization already done: the amplitude of the
  /// signed code `code`, bit-identical to lane.model.encode_code(code).
  /// Callers that need several views of one value quantize it once.
  [[nodiscard]] double amplitude(std::size_t rail, std::size_t channel,
                                 std::int32_t code) const {
    return table_[index(rail, channel, code)];
  }

  /// Integer-tier view (DESIGN.md §15), rebuilt with the double table on
  /// every epoch move: each lane column is additionally snapped onto the
  /// quantizer grid where possible (amplitude == decode(code) bit for
  /// bit) and stored as int16 codes.  quant_available() reports whether
  /// EVERY lane is on-grid — the precondition for serving integer-dot
  /// execution from this table.  Perturbed physical lanes (fabrication
  /// variation, analog faults) are never exactly on-grid, so guarded and
  /// degraded paths simply see `false` and stay on the double tables —
  /// the tier degrades to the double path, never goes stale.
  [[nodiscard]] bool quant_available() const { return built_ && quant_ok_; }

  /// Per-lane grid verdict (flat lane index), for diagnostics/tests.
  [[nodiscard]] bool lane_on_grid(std::size_t flat) const {
    return built_ && lane_on_grid_[flat] != 0u;
  }

  /// int16-code view of amplitude(): the grid code whose decode is the
  /// amplitude of signed code `code`.  Only valid when quant_available().
  [[nodiscard]] std::int16_t grid_code(std::size_t rail, std::size_t channel,
                                       std::int32_t code) const {
    return qtable_[index(rail, channel, code)];
  }

  [[nodiscard]] const converters::Quantizer& quantizer() const { return quant_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// The flat amplitude table, lane-major: index(rail, channel, code).
  [[nodiscard]] const std::vector<double>& amplitudes() const { return table_; }
  [[nodiscard]] std::size_t index(std::size_t rail, std::size_t channel,
                                  std::int32_t code) const {
    return (rail * wavelengths_ + channel) * codes_ +
           static_cast<std::size_t>(code + quant_.max_code());
  }

 private:

  std::vector<double> table_;  ///< lane-major: flat_lane · codes + (code + max_code)
  std::vector<std::int16_t> qtable_;      ///< int16 snap of table_ (valid per-lane)
  std::vector<std::uint8_t> lane_on_grid_;  ///< per flat lane: whole column on-grid
  converters::Quantizer quant_{8};
  std::size_t wavelengths_{0};
  std::size_t codes_{0};
  std::uint64_t epoch_{0};
  bool built_{false};
  bool quant_ok_{false};
};

}  // namespace pdac::faults
