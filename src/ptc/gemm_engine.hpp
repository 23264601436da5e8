// gemm_engine.hpp — tiled, tile-parallel matrix multiplication on the
// photonic core.
//
// C = A·B with both operands max-abs-scaled into [−1, 1], quantized to
// the driver's bit width, encoded by the modulators (DAC or P-DAC) and
// reduced through DDot units.
//
// Execution model (DESIGN.md §9): the output is partitioned into
// array_rows × array_cols tiles (tile_scheduler.hpp) and the tiles are
// dispatched across a thread pool.  Each worker reduces through its own
// Ddot instance (device objects are never shared mutably); operand
// encoding is amortized — every A row and B column is pushed through the
// shared encode LUT exactly once per product, mirroring the hardware's
// broadcast of one modulated row/column across a whole tile.  Results
// are bit-identical to serial execution at any thread count: every
// output element belongs to exactly one tile, its reduction order is
// fixed inside its dot product, and per-tile event counters are folded
// in tile-index order after the workers join.
//
// Event accounting contract (broadcast amortization): the counts model
// Lightening-Transformer's dynamically-operated 2-D DPTC array.  An
// H×W tile step modulates its H A-rows and W B-columns once each —
// (H + W)·k modulation events per tile, NOT the 2·k-per-dot that a
// standalone PhotonicDotEngine::dot charges — digitizes all H·W outputs
// (adc_events counts every output sample even when the functional
// adc_readout shortcut is off), and occupies the array for
// ⌈k/active_wavelengths⌉ cycles because the H·W DDots run concurrently.
// The fused tiers charge every tile step the one closed form,
// ptc::tile_events (tile_scheduler.hpp), which count_events() sums.  The
// device-graph path takes only the modulation, ADC and cycle fields from
// it and counts detection, DDot and MAC events from the dots it runs, so
// the tests that compare it with count_events() and with the fused tiers
// pin the closed form against executed counts.  With a 1×1 array
// the tile contract degenerates to exactly the standalone per-dot
// convention ((1+1)·k = 2·k).
//
// Weight-stationary split (DESIGN.md §10): prepare() runs the whole
// B-side pipeline (max-abs scale, transpose, normalize, LUT-encode —
// ptc::OperandBuilder over the engine's LUT) once
// and returns a PreparedOperand; multiply_prepared() consumes it and is
// bit-identical to multiply() — numerics AND event counts — while
// skipping every B-side pass.  LLM weights are static across tokens, so
// decode loops prepare each weight matrix once and run it many times.
//
// ABFT guard (DESIGN.md §12, abft.hpp): with GemmConfig::guard enabled,
// prepare additionally builds one checksum column per array-width
// column stripe (cached with the operand) and multiply_prepared runs the
// checksum lanes alongside every tile, judging each through
// ptc::check_tile — the same verdict, drift band and single-error
// correction faults::GuardedBackend applies.  The data path is untouched — numerics and EventCounter stay bit-identical
// to the unguarded product — and the checksum-lane charge is reported
// separately in GemmResult::guard.checksum_events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "ptc/abft.hpp"
#include "ptc/dot_engine.hpp"
#include "ptc/event_counter.hpp"
#include "ptc/kernel.hpp"
#include "ptc/operand_builder.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::ptc {

/// Which implementation executes the tile reductions (DESIGN.md §13).
///   kKernel      — the fused flat-array kernel (kernel.hpp), coefficient
///                  tables snapshotted at engine construction; bit-exact
///                  against the device graph — numerics AND event counts,
///                  clean or guarded, at any thread count (a fuzz-pinned
///                  contract) — and the accuracy reference.
///   kKernelSimd  — the kernel's SIMD fast tier: explicit 4/8-wide
///                  blocking (common/simd.hpp, AVX2+FMA when the CPU has
///                  it) over the same coefficient snapshot.  Arithmetic
///                  order changes, device semantics do not: event counts
///                  stay field-for-field equal to kKernel, outputs sit
///                  within the ABFT reassociation band (guard_tolerance)
///                  of the scalar tier, and the ABFT guard itself runs
///                  unchanged on top.  The production hot path.
///   kKernelQuant — the kernel's integer tier (DESIGN.md §15): operands
///                  carried as int16 quantizer codes and the quadratic
///                  form reduced with EXACT int16×int16→int64 dots
///                  (common/simd.hpp), scale + dark applied once at
///                  readout.  Requires an on-grid encode LUT
///                  (FusedKernel::quant_ready — e.g. the
///                  core::BitTrueDacDriver engine); construction rejects
///                  the path otherwise.  Event counts stay
///                  field-for-field equal to kKernel, outputs sit in the
///                  same guard band as kKernelSimd, and the integer sums
///                  are ISA-independent.  Quarter the operand bytes per
///                  tile of the double tiers.
///   kDeviceGraph — every chunk staged through the device objects
///                  (Ddot); the authoritative physical reference.
enum class ExecutionPath { kKernel, kDeviceGraph, kKernelSimd, kKernelQuant };

struct GemmConfig {
  DotEngineConfig dot{};
  std::size_t array_rows{8};  ///< H: DDot rows sharing B-side operands
  std::size_t array_cols{8};  ///< W: DDot columns sharing A-side operands
  /// Simulation workers for the tile dispatch: 1 = serial (default),
  /// 0 = auto (PDAC_GEMM_THREADS env var or hardware concurrency).
  /// Results are bit-identical at any value.
  std::size_t threads{1};
  /// ABFT checksum guard (abft.hpp).  Off by default; when enabled the
  /// data path and its EventCounter stay bit-identical and the verdicts
  /// plus checksum-lane charge land in GemmResult::guard.  column_only is
  /// refused at construction (abft.hpp).
  GuardConfig guard{};
  /// Tile-reduction implementation; kKernel by default (bit-identical to
  /// kDeviceGraph, several times faster on the full-optics path).
  ExecutionPath path{ExecutionPath::kKernel};
};

struct GemmResult {
  Matrix c;
  EventCounter events;
  double a_scale{1.0};
  double b_scale{1.0};
  GuardOutcome guard;  ///< per-product ABFT verdicts; enabled=false when unguarded
};

class PhotonicGemm {
 public:
  PhotonicGemm(const core::ModulatorDriver& driver, GemmConfig cfg);

  /// Full photonic product: quantize, encode once per operand element,
  /// DDot-reduce tile-parallel, rescale.  Attaches the executed event
  /// counts (== count_events for the same shape).  Not reentrant: call
  /// from one thread at a time per engine (the engine parallelizes
  /// internally and reuses per-engine scratch buffers across calls).
  [[nodiscard]] GemmResult multiply(const Matrix& a, const Matrix& b) const;

  /// Run the B-side pipeline once (operand_builder.hpp) through the
  /// engine's encode LUT, staging qcodes on the quant tier and checksum
  /// stripes under a guarded config.  `src` is B or Bᵀ per `form` — the
  /// KV scores operand (B = Kᵀ) hands its K cache straight in, without a
  /// transpose copy.  `epoch` stamps the encoder state the operand was
  /// built under; the engine itself is immutable after construction, so
  /// 0 is fine when the caller tracks no epochs.
  [[nodiscard]] PreparedOperand prepare(const Matrix& src, SourceForm form,
                                        std::uint64_t epoch = 0) const;
  [[nodiscard]] PreparedOperand prepare_b(const Matrix& b, std::uint64_t epoch = 0) const {
    return prepare(b, SourceForm::kB, epoch);
  }

  /// Append-only extension of an operand prepared from `src`'s shorter
  /// prefix: bit-identical to prepare(src, form, epoch), or false with
  /// the operand untouched when that cannot hold (OperandBuilder::append).
  /// Operands carrying faults-layer state (channel packing, a golden
  /// reference) are refused: their owner extends them itself.
  [[nodiscard]] bool append(PreparedOperand& pb, const Matrix& src, SourceForm form,
                            std::uint64_t epoch = 0) const;

  /// C = A·prepared-B, skipping every B-side pass.  Bit-identical to
  /// multiply(a, b) for the same B — numerics and event counts alike:
  /// the counts model the hardware, which still modulates B columns per
  /// tile step (the DPTC array is dynamically operated); preparation
  /// only removes *simulator* work.  Same reentrancy contract as
  /// multiply().
  [[nodiscard]] GemmResult multiply_prepared(const Matrix& a, const PreparedOperand& b) const;

  /// Analytic event counts for an (m×k)·(k×n) product on the configured
  /// array, without running numerics — the workload tracer uses this for
  /// full-size model shapes.  Equal to the counts multiply() attaches.
  [[nodiscard]] EventCounter count_events(std::size_t m, std::size_t k, std::size_t n) const;

  /// Resolved worker count (threads == 0 resolved at construction).
  [[nodiscard]] std::size_t threads() const { return pool_->size(); }

  [[nodiscard]] const GemmConfig& config() const { return cfg_; }
  [[nodiscard]] const PhotonicDotEngine& engine() const { return engine_; }

 private:
  /// The builder for this engine's encoder, staging through norm_scratch_;
  /// `checksum_stripe` applies when the guard is on (array_cols for B,
  /// array_rows for A).
  [[nodiscard]] OperandBuilder builder(std::uint64_t epoch, std::size_t checksum_stripe) const;

  GemmConfig cfg_;
  PhotonicDotEngine engine_;
  FusedKernel kernel_;  ///< coefficient snapshot of engine_'s datapath
  std::unique_ptr<ThreadPool> pool_;

  // Per-engine scratch, reused across multiply calls so steady-state
  // products allocate nothing but their output (the documented
  // "not reentrant" contract is what makes this safe).  worker_ddots_
  // holds one device instance per worker slot, built once — Ddot
  // evaluation is const, so reuse cannot perturb numerics; worker
  // scratch stages the device-graph rails allocation-free per worker.
  std::vector<Ddot> worker_ddots_;
  mutable std::vector<DdotScratch> worker_scratch_;
  mutable Matrix norm_scratch_;
  mutable PreparedOperand a_scratch_;  // the per-product A operand
  mutable std::vector<Tile> tile_scratch_;
  mutable std::vector<EventCounter> event_scratch_;
  mutable std::vector<double> rsum_scratch_;  // guarded path: raw tile row sums
  mutable std::vector<double> csum_scratch_;  // guarded path: raw tile column sums
  mutable std::vector<TileCheck> check_scratch_;
};

}  // namespace pdac::ptc
