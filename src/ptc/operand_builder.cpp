#include "ptc/operand_builder.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pdac::ptc {

namespace {

/// The raw running max-abs PreparedOperand::abs_max records; the scale
/// derived from it falls back to 1.0 for an all-zero operand.
/// std::max ignores NaN whichever side it lands on, so the fold is
/// order-independent: B and Bᵀ sources yield the same bits.
double raw_abs_max(std::span<const double> values) {
  double m = 0.0;
  for (const double v : values) m = std::max(m, std::abs(v));
  return m;
}

/// Grow `m`'s physical column capacity to at least `cols`, keeping every
/// row's contents in place.  Geometric doubling keeps a reduction axis
/// growing one column per decode token amortized O(1) per element.
template <typename M>
void grow_col_capacity(M& m, std::size_t cols) {
  if (m.cols() >= cols) return;
  M wide(m.rows(), std::max(cols, m.cols() * 2));
  for (std::size_t r = 0; r < m.rows(); ++r) std::ranges::copy(m.row(r), wide.row(r).begin());
  m = std::move(wide);
}

/// True when `m` is staged exactly as `staged` demands: (rows × cols), or empty.
template <typename M>
bool staged_as(const M& m, bool staged, std::size_t rows, std::size_t cols) {
  return staged ? m.rows() == rows && m.cols() == cols : m.size() == 0;
}

std::size_t stripes_of(std::size_t n, std::size_t stripe) { return (n + stripe - 1) / stripe; }

}  // namespace

void stage_normalized_bt(const Matrix& src, SourceForm form, std::size_t first_row,
                         double scale, Matrix& out) {
  const std::size_t rows = src.rows() - first_row;
  const std::size_t width = src.cols();
  const double* const in = src.data().data() + first_row * width;
  if (form == SourceForm::kBt) {
    out.resize(rows, width);
    for (std::size_t i = 0; i < rows * width; ++i) out.data()[i] = in[i] / scale;
    return;
  }
  out.resize(width, rows);
  double* const dst = out.data().data();
  constexpr std::size_t kBlock = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::size_t r1 = std::min(r0 + kBlock, rows);
    for (std::size_t c0 = 0; c0 < width; c0 += kBlock) {
      const std::size_t c1 = std::min(c0 + kBlock, width);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) dst[c * rows + r] = in[r * width + c] / scale;
      }
    }
  }
}

OperandBuilder::OperandBuilder(OperandLayout layout, SpanEncoder encode, ThreadPool& pool,
                               Matrix& staging)
    : layout_(std::move(layout)), encode_(std::move(encode)), pool_(pool), staging_(staging) {}

void OperandBuilder::encode_rows(PreparedOperand& pb, const Matrix& norm, std::size_t row0,
                                 std::size_t p0) const {
  // Amortized encoding: every B column goes through the encoder exactly
  // once, the software mirror of the hardware broadcasting one modulated
  // operand across a whole tile.  Columns are disjoint, so the sweep is
  // pool-parallel without changing a bit.
  const std::size_t len = norm.cols();
  pool_.parallel_for(norm.rows(), [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) {
      const std::size_t j = row0 + r;
      EncodeSpan span{norm.row(r), p0, layout_.channels, pb.encoded.row(j).subspan(p0, len), {},
                      {}};
      if (layout_.reference) span.reference = pb.reference.row(j).subspan(p0, len);
      if (layout_.qcodes) span.qcodes = pb.qcodes.row(j).subspan(p0, len);
      encode_(span);
    }
  });
}

void OperandBuilder::add_checksums(PreparedOperand& pb, std::size_t j0, std::size_t j1,
                                   std::size_t p0, std::size_t p1) const {
  // Ascending j is the fresh build's order; appends continue it, which is
  // what makes incremental stripes floating-point-identical.
  const Matrix& golden = layout_.reference ? pb.reference : pb.encoded;
  for (std::size_t j = j0; j < j1; ++j) {
    const auto src = golden.row(j);
    const auto dst = pb.checksum.row(j / layout_.checksum_stripe);
    for (std::size_t p = p0; p < p1; ++p) dst[p] += src[p];
  }
}

PreparedOperand OperandBuilder::prepare(const Matrix& src, SourceForm form) const {
  PreparedOperand pb;
  prepare(src, form, pb);
  return pb;
}

void OperandBuilder::prepare(const Matrix& src, SourceForm form, PreparedOperand& pb) const {
  const bool bt = form == SourceForm::kBt;
  pb.rows = bt ? src.cols() : src.rows();
  pb.cols = bt ? src.rows() : src.cols();
  pb.abs_max = raw_abs_max(src.data());
  pb.scale = pb.abs_max > 0.0 ? pb.abs_max : 1.0;
  pb.epoch = layout_.epoch;
  pb.channels = layout_.channels;

  // Every staged matrix is fully overwritten below; unstaged ones are
  // emptied so a reused operand carries nothing of its last layout.
  stage_normalized_bt(src, form, 0, pb.scale, staging_);
  pb.encoded.resize(pb.cols, pb.rows);
  pb.reference.resize(layout_.reference ? pb.cols : 0, layout_.reference ? pb.rows : 0);
  pb.qcodes.resize(layout_.qcodes ? pb.cols : 0, layout_.qcodes ? pb.rows : 0);
  encode_rows(pb, staging_, 0, 0);

  const std::size_t stripe = layout_.checksum_stripe;
  pb.checksum_stripe = stripe;
  pb.checksum.resize(stripe > 0 ? stripes_of(pb.cols, stripe) : 0, stripe > 0 ? pb.rows : 0);
  std::ranges::fill(pb.checksum.data(), 0.0);
  if (stripe > 0) add_checksums(pb, 0, pb.cols, 0, pb.rows);
}

bool OperandBuilder::append(PreparedOperand& pb, const Matrix& src, SourceForm form) const {
  const bool bt = form == SourceForm::kBt;
  const std::size_t k = pb.rows;
  const std::size_t n = pb.cols;
  const std::size_t fixed = bt ? k : n;       // the axis that may not change
  const std::size_t old_len = bt ? n : k;     // the axis that grows
  if (pb.epoch != layout_.epoch || pb.channels != layout_.channels) return false;
  if (fixed == 0 || src.cols() != fixed || src.rows() < old_len) return false;
  // Staging must be exactly what this layout builds.  The output axis
  // never pads (width k exactly); reduction-axis growth pads every staged
  // matrix to one shared physical width.
  const std::size_t width = pb.encoded.cols();
  if (pb.encoded.rows() != n || (bt ? width != k : width < k)) return false;
  if (!staged_as(pb.reference, layout_.reference, n, width)) return false;
  if (!staged_as(pb.qcodes, layout_.qcodes, n, width)) return false;
  const std::size_t stripe = layout_.checksum_stripe;
  if (pb.checksum_stripe != stripe ||
      !staged_as(pb.checksum, stripe > 0, stripe > 0 ? stripes_of(n, stripe) : 0, width)) {
    return false;
  }
  const std::size_t new_len = src.rows();
  if (new_len == old_len) return true;

  // Scale stability: the fresh prepare of the whole source folds the new
  // elements into the max, so bit-identity needs them at or under the
  // recorded raw max.  The new source rows are one contiguous run.
  const std::span<const double> fresh(src.data().data() + old_len * fixed,
                                      (new_len - old_len) * fixed);
  if (!(raw_abs_max(fresh) <= pb.abs_max)) return false;

  Matrix& norm = staging_;
  stage_normalized_bt(src, form, old_len, pb.scale, norm);
  if (bt) {
    // New output columns: Matrix::resize keeps every existing row when the
    // width is unchanged, so only the new rows are encoded.
    pb.encoded.resize(new_len, k);
    if (layout_.reference) pb.reference.resize(new_len, k);
    if (layout_.qcodes) pb.qcodes.resize(new_len, k);
    encode_rows(pb, norm, old_len, 0);
    if (stripe > 0) {
      const std::size_t old_stripes = pb.checksum.rows();
      pb.checksum.resize(stripes_of(new_len, stripe), k);
      for (std::size_t s = old_stripes; s < pb.checksum.rows(); ++s) {
        std::ranges::fill(pb.checksum.row(s), 0.0);
      }
      add_checksums(pb, old_len, new_len, 0, k);
    }
    pb.cols = new_len;
  } else {
    // New reduction positions land in padded column capacity; channel
    // packing is a function of the absolute position, so the encoder sees
    // p0 = old_len exactly as a fresh prepare would.
    grow_col_capacity(pb.encoded, new_len);
    if (layout_.reference) grow_col_capacity(pb.reference, new_len);
    if (layout_.qcodes) grow_col_capacity(pb.qcodes, new_len);
    encode_rows(pb, norm, 0, old_len);
    if (stripe > 0) {
      grow_col_capacity(pb.checksum, new_len);
      for (std::size_t s = 0; s < pb.checksum.rows(); ++s) {
        std::ranges::fill(pb.checksum.row(s).subspan(old_len, new_len - old_len), 0.0);
      }
      add_checksums(pb, 0, n, old_len, new_len);
    }
    pb.rows = new_len;
  }
  return true;
}

}  // namespace pdac::ptc
