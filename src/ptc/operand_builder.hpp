// operand_builder.hpp — the one operand pipeline behind both sides of
// every photonic GEMM (DESIGN.md §10, §17).
//
// A prepared operand is B's encoded transpose: max-abs scale, normalize
// into the modulators' (−1, 1) domain, encode every output column's
// reduction row once, and — for guarded execution — sum the golden
// columns into one checksum row per stripe.  The A side is the same
// pipeline: A (m × k, row-major) already has Bᵀ's shape, so a
// SourceForm::kBt prepare with checksum_stripe = array_rows yields A's
// encoded rows and its row-stripe checksums (Σ_i x′_i).  The backends
// differ only in how a normalized value becomes an amplitude: the
// engine's LUT (ptc::PhotonicGemm) or a lane bank's current + golden
// tables, x rail for A and y rail for B (faults::GuardedBackend).  Each
// hands the builder a span encoder and an OperandLayout naming what it
// stages; the builder owns the rest — the raw max-abs fold, staging from
// either source orientation, the pool-parallel encode sweep, the
// checksum stripes, and in-place appends along either axis with one set
// of refusal rules.
//
// Appends (decode's K and V operands grow one row per token) are
// bit-identical to a fresh prepare of the grown source: only the new
// elements are staged and encoded, and checksum sums continue in the
// fresh build's ascending-column order.  An append refuses, leaving the
// operand untouched, whenever that identity cannot be guaranteed: the
// layout's epoch or channel packing moved, the source shrank or changed
// width, a new element's magnitude exceeds the recorded raw max-abs (the
// fresh scale would differ), or the operand's staging does not match
// this builder's layout.  The caller then rebuilds from scratch.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"

namespace pdac::ptc {

/// The B operand of C = A·B, fully prepared for the photonic array:
/// transposed into row-major columns, max-abs-normalized and pushed
/// through the encoder.  Reusing one across products is valid only
/// while the encoder state it was built under is unchanged — `epoch`
/// records that state (driver/trim/lane epoch, owner-defined) so stores
/// can refuse stale encodings.
///
/// Logical vs physical shape (KV appends, DESIGN.md §17): `rows`/`cols`
/// are the LOGICAL source dimensions.  `encoded`/`reference`/`qcodes`
/// always hold exactly `cols` rows, but may carry more physical columns
/// than `rows` — reduction-axis appends pad column capacity
/// geometrically so a growing reduction axis (the KV context operand,
/// one V row per decode token) re-lays-out O(log t) times instead of
/// every token.  Every consumer reads row spans bounded by the logical
/// reduction length, so the padding is never touched by numerics,
/// events or guard verdicts.
struct PreparedOperand {
  Matrix encoded;         ///< (n × ≥k) encoded, normalized Bᵀ
  double scale{1.0};      ///< max-abs scale divided out before encoding
  /// Raw max-abs of every source element folded so far.  `scale` alone
  /// cannot arbitrate appends: an all-zero operand gets the fallback
  /// scale 1.0, indistinguishable from a genuine max of 1.0.  An append
  /// is bit-identical to a fresh prepare iff the new elements' max-abs
  /// stays ≤ this (the fresh scale would then come out bitwise equal).
  double abs_max{0.0};
  std::size_t rows{0};    ///< source b.rows() (= k, the reduction length)
  std::size_t cols{0};    ///< source b.cols() (= n)
  std::uint64_t epoch{0}; ///< encoder state stamp it was encoded under
  /// Lane-packing snapshot for degraded execution (faults layer): the
  /// usable channel each reduction position rides.  Empty on the healthy
  /// path, where packing is fixed by the engine's lane mask.
  std::vector<std::size_t> channels;

  /// ABFT checksum stripes (abft.hpp): row s is the digital sum of the
  /// golden columns in column-stripe s — Σ_j reference.row(j) when a
  /// reference is staged, Σ_j encoded.row(j) otherwise — where stripes
  /// are `checksum_stripe` columns wide.  Empty when the layout builds
  /// no stripes.
  Matrix checksum;
  std::size_t checksum_stripe{0};
  /// Golden (calibration-state) encoding of the operand for guarded
  /// execution when the live encoder may have drifted from the state the
  /// references were calibrated under (faults::GuardedBackend).  Empty on
  /// the healthy ptc path, where `encoded` doubles as the reference.
  Matrix reference;

  /// Integer-tier operand form (ExecutionPath::kKernelQuant): the
  /// quantizer code of every encoded element.  On-grid,
  /// decode(qcodes) == encoded bitwise — the codes are the same operand
  /// at a quarter the bytes.  Empty when the layout stages no codes.
  CodeMatrix qcodes;

  /// Resident size, for byte-capacity store accounting.  Counts physical
  /// storage, so column-capacity padding is charged to the stores too.
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(PreparedOperand) +
           (encoded.size() + checksum.size() + reference.size()) * sizeof(double) +
           qcodes.size() * sizeof(std::int16_t) + channels.size() * sizeof(std::size_t);
  }
};

/// How the caller holds B's source; the form also fixes the axis an
/// append grows.
enum class SourceForm {
  kB,   ///< B itself (k × n): new source rows extend the reduction axis
  kBt,  ///< Bᵀ (n × k): new source rows are new output columns
};

/// What one encoder stages into a prepared operand.
struct OperandLayout {
  std::uint64_t epoch{0};             ///< stamped into PreparedOperand::epoch
  std::vector<std::size_t> channels;  ///< stamped into PreparedOperand::channels
  bool reference{false};              ///< stage a golden encoding
  bool qcodes{false};                 ///< stage int16 quantizer codes
  std::size_t checksum_stripe{0};     ///< checksum stripe width; 0 = no stripes
};

/// One span for the encoder to fill: the normalized values of reduction
/// positions [p0, p0 + norm.size()) of one output column, and that
/// column's matching spans of every staged matrix (empty when the
/// layout does not stage it).  Position p rides channel
/// channels[p % channels.size()] when the layout carries a packing.
struct EncodeSpan {
  std::span<const double> norm;
  std::size_t p0{0};
  std::span<const std::size_t> channels;  ///< the layout's packing
  std::span<double> encoded;
  std::span<double> reference;
  std::span<std::int16_t> qcodes;
};
using SpanEncoder = std::function<void(const EncodeSpan&)>;

/// Stage normalized Bᵀ of source rows [first_row, src.rows()) into
/// `out`: (new rows × k) for a Bᵀ source, (n × new rows) for a B source,
/// whose transpose walks 32×32 blocks so reads and writes stay in cache.
/// Every element gets the same single divide by `scale`.
void stage_normalized_bt(const Matrix& src, SourceForm form, std::size_t first_row,
                         double scale, Matrix& out);

class OperandBuilder {
 public:
  /// `staging` is caller-owned scratch for the normalized source, reused
  /// across calls.  Encoder calls run concurrently on `pool` over
  /// disjoint columns.
  OperandBuilder(OperandLayout layout, SpanEncoder encode, ThreadPool& pool, Matrix& staging);

  [[nodiscard]] PreparedOperand prepare(const Matrix& src, SourceForm form) const;
  /// prepare() into `out`, reusing its storage: an operand rebuilt every
  /// product (the A side) allocates nothing once it has grown to size.
  void prepare(const Matrix& src, SourceForm form, PreparedOperand& out) const;

  /// Extend `pb` in place to the grown source `src`, held in the form
  /// `pb` was prepared from.  Bit-identical to prepare(src, form); false
  /// (pb untouched) when that identity cannot hold — see the header.
  [[nodiscard]] bool append(PreparedOperand& pb, const Matrix& src, SourceForm form) const;

 private:
  /// Encode staged row r into column row0 + r at reduction offset p0.
  void encode_rows(PreparedOperand& pb, const Matrix& norm, std::size_t row0,
                   std::size_t p0) const;
  /// Fold columns [j0, j1) × positions [p0, p1) into the checksum stripes.
  void add_checksums(PreparedOperand& pb, std::size_t j0, std::size_t j1, std::size_t p0,
                     std::size_t p1) const;

  OperandLayout layout_;
  SpanEncoder encode_;
  ThreadPool& pool_;
  Matrix& staging_;
};

}  // namespace pdac::ptc
