// kernel.hpp — fused amplitude-domain compute kernel for the GEMM hot
// path (DESIGN.md §13).
//
// The device graph (Ddot: phase shifter → coupler → balanced detectors)
// is the authoritative physical model, but its inner loop carries costs
// that exist only in software: WdmField construction per chunk, complex
// arithmetic on purely real operand amplitudes, and per-element dispatch
// through device objects.  P-DAC's own contribution is replacing exact
// per-element machinery with a cheap closed form; the same move applies
// here.  At construction the kernel snapshots each lane's effective
// real-valued transfer — phase-shifter factor, coupler split (t, j·κ),
// PD responsivity×scale and dark current, with fenced lanes dropped from
// the packing — into a flat per-lane coefficient table, then executes
// encode → couple → detect → differential readout for whole tiles as one
// pass over contiguous double arrays.
//
// Bit-identity contract (fuzz-pinned by tests/test_kernel.cpp): the
// kernel replays the device graph's exact floating-point operation
// sequence — the naive complex-multiply expansions the library evaluates
// (including the ps_re·0.0-style terms that keep signed zeros honest),
// per-chunk intensity sums in ascending channel order, detector affine
// transfer, per-chunk differential accumulation, and the same ADC
// round-trip — so outputs AND event counts equal the device-graph path
// bit for bit at any thread count, clean or degraded.  Inactive (fenced
// or past-the-ragged-edge) channels contribute exactly +0.0 to both
// photocurrents in the device graph, and every partial intensity sum is
// non-negative, so skipping them cannot change a single bit.
//
// Staleness: a kernel is a snapshot.  PhotonicGemm's engine is immutable
// after construction, so its kernel never goes stale; the faults layer,
// whose lane transfers mutate, keys its own coefficient tables on the
// LaneBank epoch instead (faults/lane_table.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "converters/electrical_adc.hpp"
#include "ptc/ddot.hpp"
#include "ptc/dot_engine.hpp"
#include "ptc/event_counter.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::ptc {

/// Effective real-amplitude transfer of one DDot lane, exactly as the
/// device graph evaluates it on (x, 0)/(y, 0) operand amplitudes.
struct LaneTransfer {
  double ps_re{};  ///< phase-shifter factor, real part
  double ps_im{};  ///< phase-shifter factor, imaginary part
  double t{};      ///< coupler transmission
  double jk_re{};  ///< j·κ as the coupler evaluates it, real part
  double jk_im{};  ///< j·κ, imaginary part (= κ)
};

/// Affine transfer of the balanced detector pair: I± = gain±·ΣI + dark±.
struct DetectorTransfer {
  double gain_plus{1.0};
  double dark_plus{0.0};
  double gain_minus{1.0};
  double dark_minus{0.0};
};

class FusedKernel {
 public:
  /// Snapshot an engine's whole datapath: device transfers from its Ddot,
  /// lane packing from its lane mask, ADC behavior from its config.
  explicit FusedKernel(const PhotonicDotEngine& engine);

  /// Snapshot a standalone device chain (unit tests, custom devices).
  FusedKernel(const Ddot& ddot, const DotEngineConfig& cfg);

  /// Fused dot over pre-encoded amplitudes; bit-identical to
  /// PhotonicDotEngine::dot_preencoded, event charges included
  /// (detection/ddot per chunk, macs per element — modulation, ADC
  /// samples and cycles stay the caller's tile-level charge).
  [[nodiscard]] double dot(std::span<const double> xe, std::span<const double> ye,
                           EventCounter* ev = nullptr) const;

  /// One whole output tile in a single pass: every (i, j) dot of
  /// ae[tile rows] × be[tile cols], ADC-rounded, rescaled into `c`.
  /// When `rsum`/`csum` are non-null (ABFT-guarded products) the raw
  /// post-ADC dot values are accumulated per tile row/column in the same
  /// order as the device-graph loop.  Events are the caller's
  /// (ptc::tile_events).
  void run_tile(const Tile& tile, const Matrix& ae, const Matrix& be, double rescale,
                Matrix& c, double* rsum = nullptr, double* csum = nullptr) const;

  /// SIMD fast tier (ExecutionPath::kKernelSimd), one call per product:
  /// every output of ae·beᵀ, ADC-rounded and rescaled into `c`.  Under
  /// full optics the per-element physics collapses into its closed
  /// quadratic form (derivation in kernel.cpp): Σx² once per A row, Σy²
  /// once per B column, one blocked Σxy per output (common/simd.hpp).
  /// Outputs are tolerance-banded against the scalar tier, O(ε·k·|x||y|),
  /// inside the ABFT guard band.
  ///
  /// The sweep takes groups of W-wide column stripes (W = tile_cols)
  /// sized to stay cache-resident and runs all A rows past each group,
  /// two rows by four columns at a time.  An output's reduction depends
  /// only on its place in its stripe — simd::dot4 for the 4-column blocks
  /// from the stripe start, simd::dot for the last w mod 4 columns — so
  /// traversal order, the 2×4 block (dot2x4 ≡ dot4 bitwise) and the
  /// thread count move no bit.  Guarded products pass `rsum`/`csum`: the
  /// raw post-ADC values summed per tile, rsum[s·m + i] over stripe s in
  /// ascending j and csum[(i / tile_rows)·n + j] over the tile's rows in
  /// ascending i, the order run_tile uses.  Column stripes are split
  /// statically across `pool`.
  void run_product_fast(const Matrix& ae, const Matrix& be, std::size_t tile_rows,
                        std::size_t tile_cols, double rescale, ThreadPool& pool, Matrix& c,
                        double* rsum = nullptr, double* csum = nullptr) const;

  /// Integer tier (ExecutionPath::kKernelQuant, DESIGN.md §15): the same
  /// sweep and contract over int16 quantizer codes.  Valid only when
  /// quant_ready() — the encode LUT lies bitwise on the quantizer grid,
  /// so an amplitude IS code/max_code and every Σx², Σy², Σxy is an EXACT
  /// integer sum (common/simd.hpp dot_i16 family).  Scale and dark
  /// current are applied once in double at readout, so each raw value
  /// carries one rounding — the O(ε·k) family the guard band absorbs —
  /// and the same bits on every ISA.
  void run_product_quant(const CodeMatrix& aq, const CodeMatrix& bq, std::size_t tile_rows,
                         std::size_t tile_cols, double rescale, ThreadPool& pool, Matrix& c,
                         double* rsum = nullptr, double* csum = nullptr) const;

  /// True when run_product_quant is usable: the kernel was snapshotted
  /// from an engine whose encode LUT is exactly the quantizer grid (e.g. a
  /// core::BitTrueDacDriver engine).  Off-grid drivers (ideal DAC,
  /// P-DAC) leave this false and callers fall back to the double tiers.
  [[nodiscard]] bool quant_ready() const { return quant_ready_; }

  [[nodiscard]] std::size_t active_wavelengths() const { return lanes_.size(); }
  [[nodiscard]] const std::vector<LaneTransfer>& lane_table() const { return lanes_; }
  [[nodiscard]] const DetectorTransfer& detector() const { return det_; }

 private:
  [[nodiscard]] double reduce(std::span<const double> xe, std::span<const double> ye) const;
  [[nodiscard]] converters::ElectricalAdc make_adc(std::size_t k) const;

  /// One coefficient row per active (un-fenced) wavelength, in packing
  /// order — the flat table the inner loop streams.
  std::vector<LaneTransfer> lanes_;
  DetectorTransfer det_{};
  bool full_optics_{false};
  bool adc_{false};
  int adc_bits_{8};
  double adc_full_scale_{0.0};
  /// Integer-tier state: certified on-grid encode LUT + the operand
  /// quantizer's max code (code → amplitude is code/max_code_).
  bool quant_ready_{false};
  std::int32_t max_code_{127};
};

}  // namespace pdac::ptc
