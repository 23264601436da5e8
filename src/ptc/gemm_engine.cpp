#include "ptc/gemm_engine.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/require.hpp"
#include "converters/quantizer.hpp"

namespace pdac::ptc {

PhotonicGemm::PhotonicGemm(const core::ModulatorDriver& driver, GemmConfig cfg)
    : cfg_(cfg),
      engine_(driver, cfg.dot),
      kernel_(engine_),
      pool_(std::make_unique<ThreadPool>(cfg.threads)) {
  PDAC_REQUIRE(cfg_.array_rows >= 1 && cfg_.array_cols >= 1,
               "PhotonicGemm: array dimensions must be positive");
  PDAC_REQUIRE(cfg_.path != ExecutionPath::kKernelQuant || kernel_.quant_ready(),
               "PhotonicGemm: kKernelQuant requires a driver whose encode transfer lies "
               "exactly on the quantizer grid (core::BitTrueDacDriver); use "
               "nn::fastest_gemm_config to auto-select a valid path");
  worker_ddots_.reserve(pool_->size());
  for (std::size_t w = 0; w < pool_->size(); ++w) {
    worker_ddots_.push_back(engine_.make_worker_ddot());
  }
  worker_scratch_.resize(pool_->size());
}

GemmResult PhotonicGemm::multiply(const Matrix& a, const Matrix& b) const {
  return multiply_prepared(a, prepare_b(b));
}

namespace {

/// The max-abs fold of converters::max_abs_scale without its all-zero
/// fallback — the raw running maximum PreparedOperand::abs_max records so
/// appends can prove the fresh scale would come out bitwise identical.
/// std::max ignores NaN whichever side it lands on, so the fold is
/// order-independent — prepare_b and prepare_bt see the same value over
/// the transposed element order.
double raw_abs_max(std::span<const double> values) {
  double m = 0.0;
  for (const double v : values) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace

void PhotonicGemm::finish_prepare(PreparedOperand& pb) const {
  // Amortized encoding: every B column goes through the shared encode
  // LUT exactly once, the software mirror of the hardware broadcasting
  // one modulated operand across a whole tile.  Rows are disjoint, so
  // the encode sweep is tile-parallel; encode() is a pure LUT lookup,
  // so the partitioning cannot change a single bit.
  pb.encoded = Matrix(norm_scratch_.rows(), norm_scratch_.cols());
  const bool quant = cfg_.path == ExecutionPath::kKernelQuant;
  if (quant) pb.qcodes.resize(norm_scratch_.rows(), norm_scratch_.cols());
  pool_->parallel_for(norm_scratch_.rows(),
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        for (std::size_t r = begin; r < end; ++r) {
                          if (quant) {
                            engine_.encode_span(norm_scratch_.row(r), pb.encoded.row(r),
                                                pb.qcodes.row(r));
                          } else {
                            engine_.encode_span(norm_scratch_.row(r), pb.encoded.row(r));
                          }
                        }
                      });

  // ABFT column checksums (abft.hpp): one digital sum of the encoded
  // columns per array-width stripe, cached with the operand so guarded
  // runs pay the O(n·k) sums once per prepare, not once per product.
  // Accumulation runs in ascending column order — the order the append
  // paths continue, which is what makes incremental checksum extension
  // floating-point-identical to this fresh build.
  if (cfg_.guard.enabled) {
    pb.checksum_stripe = cfg_.array_cols;
    const std::size_t stripes = (pb.cols + cfg_.array_cols - 1) / cfg_.array_cols;
    pb.checksum = Matrix(stripes, pb.rows);
    std::fill(pb.checksum.data().begin(), pb.checksum.data().end(), 0.0);
    for (std::size_t j = 0; j < pb.cols; ++j) {
      const auto src = pb.encoded.row(j);
      const auto dst = pb.checksum.row(j / cfg_.array_cols);
      for (std::size_t p = 0; p < pb.rows; ++p) dst[p] += src[p];
    }
  }
}

PreparedOperand PhotonicGemm::prepare_b(const Matrix& b, std::uint64_t epoch) const {
  PreparedOperand pb;
  pb.rows = b.rows();
  pb.cols = b.cols();
  pb.abs_max = raw_abs_max(b.data());
  pb.scale = pb.abs_max > 0.0 ? pb.abs_max : 1.0;  // == converters::max_abs_scale
  pb.epoch = epoch;

  // Keep B column-major-friendly by transposing once, then normalize
  // into the modulators' (−1, 1) domain.  The transpose walks 32×32
  // blocks so both the rows read and the columns written stay in cache;
  // each element still gets the same single divide.
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  norm_scratch_.resize(n, k);
  const double* const src = b.data().data();
  double* const dst = norm_scratch_.data().data();
  constexpr std::size_t kBlock = 32;
  for (std::size_t r0 = 0; r0 < k; r0 += kBlock) {
    const std::size_t r1 = std::min(r0 + kBlock, k);
    for (std::size_t c0 = 0; c0 < n; c0 += kBlock) {
      const std::size_t c1 = std::min(c0 + kBlock, n);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) dst[c * k + r] = src[r * n + c] / pb.scale;
      }
    }
  }
  finish_prepare(pb);
  return pb;
}

PreparedOperand PhotonicGemm::prepare_bt(const Matrix& bt, std::uint64_t epoch) const {
  PreparedOperand pb;
  pb.rows = bt.cols();
  pb.cols = bt.rows();
  pb.abs_max = raw_abs_max(bt.data());
  pb.scale = pb.abs_max > 0.0 ? pb.abs_max : 1.0;
  pb.epoch = epoch;

  // Already in Bᵀ orientation: normalize straight into the staging
  // buffer.  Same per-element divide as prepare_b, same multiset under
  // the max-abs fold, so the result is bitwise the prepare_b of the
  // transposed source.
  norm_scratch_.resize(bt.rows(), bt.cols());
  for (std::size_t i = 0; i < bt.size(); ++i) {
    norm_scratch_.data()[i] = bt.data()[i] / pb.scale;
  }
  finish_prepare(pb);
  return pb;
}

bool PhotonicGemm::append_bt_rows(PreparedOperand& pb, const Matrix& bt,
                                  std::uint64_t epoch) const {
  const bool quant = cfg_.path == ExecutionPath::kKernelQuant;
  // Refuse anything the bit-identity proof does not cover: stale epoch,
  // shrunk/mismatched source, faults-layer operands (channel packing and
  // golden references are GuardedBackend's to extend), an operand whose
  // reduction axis was ever padded (mixed-axis growth), or tier/guard
  // staging that disagrees with this engine's config.
  if (pb.epoch != epoch || !pb.channels.empty() || pb.reference.size() > 0) return false;
  if (pb.rows == 0 || pb.rows != bt.cols() || pb.cols > bt.rows()) return false;
  if (pb.encoded.rows() != pb.cols || pb.encoded.cols() != pb.rows) return false;
  if (quant) {
    if (pb.qcodes.rows() != pb.cols || pb.qcodes.cols() != pb.rows) return false;
  } else if (pb.qcodes.size() > 0) {
    return false;
  }
  if (cfg_.guard.enabled) {
    if (pb.checksum_stripe != cfg_.array_cols || pb.checksum.cols() != pb.rows) return false;
  } else if (pb.checksum.size() > 0) {
    return false;
  }
  const std::size_t old_n = pb.cols;
  const std::size_t new_n = bt.rows();
  if (new_n == old_n) return true;

  // Scale stability: the fresh prepare of the full source folds the new
  // elements into the max — bit-identity needs them at or under the
  // recorded raw max.  NaN-safe: !(x <= y) also rejects NaN deltas.
  double dmax = 0.0;
  for (std::size_t j = old_n; j < new_n; ++j) {
    dmax = std::max(dmax, raw_abs_max(bt.row(j)));
  }
  if (!(dmax <= pb.abs_max)) return false;

  const std::size_t k = pb.rows;
  const std::size_t delta = new_n - old_n;
  norm_scratch_.resize(delta, k);
  for (std::size_t r = 0; r < delta; ++r) {
    const auto src = bt.row(old_n + r);
    const auto dst = norm_scratch_.row(r);
    for (std::size_t p = 0; p < k; ++p) dst[p] = src[p] / pb.scale;
  }

  // Row append: Matrix::resize preserves every existing row when the
  // column count is unchanged, so only the new rows are encoded.
  pb.encoded.resize(new_n, k);
  if (quant) pb.qcodes.resize(new_n, k);
  pool_->parallel_for(delta, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) {
      if (quant) {
        engine_.encode_span(norm_scratch_.row(r), pb.encoded.row(old_n + r),
                            pb.qcodes.row(old_n + r));
      } else {
        engine_.encode_span(norm_scratch_.row(r), pb.encoded.row(old_n + r));
      }
    }
  });

  if (cfg_.guard.enabled) {
    // Continue the per-stripe running sums exactly where the fresh build
    // would: existing stripe rows already hold the ascending-j partial
    // sums through old_n, new stripe rows start from zero.
    const std::size_t stripes = (new_n + cfg_.array_cols - 1) / cfg_.array_cols;
    const std::size_t old_stripes = pb.checksum.rows();
    pb.checksum.resize(stripes, k);
    for (std::size_t s = old_stripes; s < stripes; ++s) {
      const auto row = pb.checksum.row(s);
      std::fill(row.begin(), row.end(), 0.0);
    }
    for (std::size_t j = old_n; j < new_n; ++j) {
      const auto src = pb.encoded.row(j);
      const auto dst = pb.checksum.row(j / cfg_.array_cols);
      for (std::size_t p = 0; p < k; ++p) dst[p] += src[p];
    }
  }
  pb.cols = new_n;
  return true;
}

bool PhotonicGemm::append_b_rows(PreparedOperand& pb, const Matrix& b,
                                 std::uint64_t epoch) const {
  const bool quant = cfg_.path == ExecutionPath::kKernelQuant;
  if (pb.epoch != epoch || !pb.channels.empty() || pb.reference.size() > 0) return false;
  if (pb.rows == 0 || pb.cols == 0 || pb.cols != b.cols() || pb.rows > b.rows()) return false;
  if (pb.encoded.rows() != pb.cols || pb.encoded.cols() < pb.rows) return false;
  if (quant && (pb.qcodes.rows() != pb.cols || pb.qcodes.cols() != pb.encoded.cols())) {
    return false;
  }
  if (!quant && pb.qcodes.size() > 0) return false;
  if (cfg_.guard.enabled &&
      (pb.checksum_stripe != cfg_.array_cols || pb.checksum.cols() != pb.encoded.cols())) {
    return false;
  }
  if (!cfg_.guard.enabled && pb.checksum.size() > 0) return false;
  const std::size_t old_k = pb.rows;
  const std::size_t new_k = b.rows();
  if (new_k == old_k) return true;

  double dmax = 0.0;
  for (std::size_t r = old_k; r < new_k; ++r) {
    dmax = std::max(dmax, raw_abs_max(b.row(r)));
  }
  if (!(dmax <= pb.abs_max)) return false;

  const std::size_t n = pb.cols;
  const std::size_t delta = new_k - old_k;
  // The reduction axis lives along matrix columns: appends land in
  // physical column capacity grown geometrically, with consumers bounded
  // by the logical length (PreparedOperand shape contract).
  grow_col_capacity(pb.encoded, new_k);
  if (quant) grow_col_capacity(pb.qcodes, new_k);

  // Stage the new elements of each Bᵀ row (n rows × delta new columns).
  norm_scratch_.resize(n, delta);
  for (std::size_t j = 0; j < n; ++j) {
    const auto dst = norm_scratch_.row(j);
    for (std::size_t p = 0; p < delta; ++p) dst[p] = b(old_k + p, j) / pb.scale;
  }
  pool_->parallel_for(n, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) {
      const auto enc = pb.encoded.row(r).subspan(old_k, delta);
      if (quant) {
        engine_.encode_span(norm_scratch_.row(r), enc, pb.qcodes.row(r).subspan(old_k, delta));
      } else {
        engine_.encode_span(norm_scratch_.row(r), enc);
      }
    }
  });

  if (cfg_.guard.enabled) {
    // New checksum columns only: each is a fresh ascending-j sum over its
    // stripe, the exact order finish_prepare uses — the old columns'
    // sums are untouched.
    grow_col_capacity(pb.checksum, new_k);
    for (std::size_t s = 0; s < pb.checksum.rows(); ++s) {
      const auto row = pb.checksum.row(s);
      for (std::size_t p = old_k; p < new_k; ++p) row[p] = 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const auto src = pb.encoded.row(j);
      const auto dst = pb.checksum.row(j / cfg_.array_cols);
      for (std::size_t p = old_k; p < new_k; ++p) dst[p] += src[p];
    }
  }
  pb.rows = new_k;
  return true;
}

GemmResult PhotonicGemm::multiply_prepared(const Matrix& a, const PreparedOperand& b) const {
  PDAC_REQUIRE(a.cols() == b.rows, "PhotonicGemm: inner dimensions must agree");
  const bool guarded = cfg_.guard.enabled;
  if (guarded) {
    PDAC_REQUIRE(b.checksum_stripe == cfg_.array_cols &&
                     b.checksum.rows() == (b.cols + cfg_.array_cols - 1) / cfg_.array_cols,
                 "PhotonicGemm: guarded execution needs an operand prepared under the same "
                 "guarded config (prepare_b with guard.enabled)");
  }
  const bool quant = cfg_.path == ExecutionPath::kKernelQuant;
  if (quant) {
    // >= on the reduction axis: appended operands may carry physical
    // column-capacity padding past the logical length (PreparedOperand
    // shape contract); every kernel loop below is bounded by b.rows.
    PDAC_REQUIRE(b.qcodes.rows() == b.cols && b.qcodes.cols() >= b.rows,
                 "PhotonicGemm: quant execution needs an operand prepared under the quant "
                 "path (prepare_b with ExecutionPath::kKernelQuant)");
  }
  const double a_scale = converters::max_abs_scale(a.data());
  const std::size_t k = a.cols();

  // A-side pipeline (normalize + encode), into per-engine scratch; the
  // quant path captures each element's code alongside its amplitude.
  norm_scratch_.resize(a.rows(), k);
  for (std::size_t i = 0; i < a.size(); ++i) norm_scratch_.data()[i] = a.data()[i] / a_scale;
  encode_scratch_.resize(a.rows(), k);
  const Matrix& ae = encode_scratch_;
  if (quant) qcode_scratch_.resize(a.rows(), k);
  pool_->parallel_for(a.rows(), [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) {
      if (quant) {
        engine_.encode_span(norm_scratch_.row(r), encode_scratch_.row(r),
                            qcode_scratch_.row(r));
      } else {
        engine_.encode_span(norm_scratch_.row(r), encode_scratch_.row(r));
      }
    }
  });

  GemmResult res;
  res.a_scale = a_scale;
  res.b_scale = b.scale;
  res.c = Matrix(a.rows(), b.cols);
  const double rescale = a_scale * b.scale;

  partition_tiles_into(a.rows(), b.cols, cfg_.array_rows, cfg_.array_cols, tile_scratch_);
  const std::vector<Tile>& tiles = tile_scratch_;
  const std::size_t chunks = (k + engine_.active_wavelengths() - 1) / engine_.active_wavelengths();

  // Per-tile counters land in tile-index slots and are folded in index
  // order after the join, so accounting is deterministic at any thread
  // count (the numerics are deterministic element-wise anyway).
  event_scratch_.assign(tiles.size(), EventCounter{});

  // Guard setup: build the A row-stripe checksums (Σ_i x′_i per
  // array_rows-high stripe) once per product.  References compare
  // against the *golden* encodings — b.reference when the operand
  // carries a calibration-state snapshot (faults layer), b.encoded
  // otherwise (the immutable healthy path, where they coincide).
  // The raw tile sums compared with them live in two product-wide
  // arrays, each tile's slice contiguous: rsum[s·m + i] for column
  // stripe s, csum[(i/H)·n + j] for row stripe i/H.
  const Matrix& bref = (guarded && b.reference.size() > 0) ? b.reference : b.encoded;
  const std::size_t m = a.rows();
  const std::size_t n = b.cols;
  double* rsum = nullptr;
  double* csum = nullptr;
  if (guarded) {
    const std::size_t row_stripes = (m + cfg_.array_rows - 1) / cfg_.array_rows;
    const std::size_t col_stripes = (n + cfg_.array_cols - 1) / cfg_.array_cols;
    xsum_scratch_.resize(row_stripes, k);
    std::fill(xsum_scratch_.data().begin(), xsum_scratch_.data().end(), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = ae.row(i);
      const auto dst = xsum_scratch_.row(i / cfg_.array_rows);
      for (std::size_t p = 0; p < k; ++p) dst[p] += src[p];
    }
    check_scratch_.assign(tiles.size(), TileCheck{});
    rsum_scratch_.assign(col_stripes * m, 0.0);
    csum_scratch_.assign(row_stripes * n, 0.0);
    rsum = rsum_scratch_.data();
    csum = csum_scratch_.data();
  }

  // The fast tiers run the whole product in one sweep (kernel.hpp);
  // the per-tile pass below then only charges events and checks guards.
  const ExecutionPath path = cfg_.path;
  const bool product_level = path == ExecutionPath::kKernelSimd || quant;
  if (path == ExecutionPath::kKernelSimd) {
    kernel_.run_product_fast(ae, b.encoded, cfg_.array_rows, cfg_.array_cols, rescale, *pool_,
                             res.c, rsum, csum);
  } else if (quant) {
    // The guard below still compares the raw sums against the double
    // references, band unchanged.
    kernel_.run_product_quant(qcode_scratch_, b.qcodes, cfg_.array_rows, cfg_.array_cols,
                              rescale, *pool_, res.c, rsum, csum);
  }

  for_each_tile(*pool_, tiles, [&](std::size_t t, std::size_t worker) {
    const Tile& tile = tiles[t];
    double* const trsum = guarded ? rsum + tile.col0 / cfg_.array_cols * m + tile.row0 : nullptr;
    double* const tcsum = guarded ? csum + tile.row0 / cfg_.array_rows * n + tile.col0 : nullptr;
    EventCounter reduction;  // detection / ddot_ops / macs from the dots run
    if (product_level) {
      reduction = kernel_.tile_events(tile, k);
    } else if (path == ExecutionPath::kKernel) {
      // Fused flat-array kernel: the whole tile in one pass, raw sums
      // accumulated in the same order as the device-graph loop below.
      kernel_.run_tile(tile, ae, b.encoded, rescale, res.c, &reduction, trsum, tcsum);
    } else {
      const Ddot& ddot = worker_ddots_[worker];
      DdotScratch& scratch = worker_scratch_[worker];
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
          // first(k) strips any column-capacity padding off the prepared
          // row — the device path takes equal-length spans.
          const double raw = engine_.dot_preencoded(ae.row(i), b.encoded.row(j).first(k),
                                                    &reduction, &ddot, &scratch);
          res.c(i, j) = raw * rescale;
          if (guarded) {
            trsum[i - tile.row0] += raw;
            tcsum[j - tile.col0] += raw;
          }
        }
      }
    }
    // Broadcast-amortization contract (see header): modulation, ADC and
    // cycle occupancy are tile-step quantities, not per-dot ones.  The
    // hardware modulates B columns per tile step even when the simulator
    // reuses a prepared encoding, so the charge is unconditional.
    reduction.modulation_events = (tile.rows + tile.cols) * k;
    reduction.adc_events = tile.rows * tile.cols;
    reduction.cycles = chunks;
    event_scratch_[t] = reduction;

    if (guarded) {
      TileCheck check;
      check.tile = t;
      // The deterministic band scales with the raw dot magnitudes, which
      // |x′·y′| ≤ 1 per element bounds by k.
      const double mag = static_cast<double>(k);
      const double tol_row = guard_tolerance(cfg_.guard, k, tile.cols, mag);
      const double tol_col = guard_tolerance(cfg_.guard, k, tile.rows, mag);
      const auto note = [&check](double residual, double tol) {
        // NaN residuals must read as mismatches, never as "in band".
        if (std::isnan(residual) || residual > check.worst_residual) {
          check.worst_residual = residual;
          check.tolerance = tol;
        }
        if (std::isnan(residual) || residual > tol) check.ok = false;
      };
      // Row lanes: Σ_j tile(i,j) vs ⟨golden x′_i, cached Σ_j y′_j⟩.
      const auto ysum = b.checksum.row(tile.col0 / cfg_.array_cols);
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        const auto xr = ae.row(i);
        double ref = 0.0;
        for (std::size_t p = 0; p < k; ++p) ref += xr[p] * ysum[p];
        note(std::abs(trsum[i - tile.row0] - ref), tol_row);
      }
      // Column lanes: Σ_i tile(i,j) vs ⟨Σ_i x′_i, golden y′_j⟩.
      const auto xsum = xsum_scratch_.row(tile.row0 / cfg_.array_rows);
      for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
        const auto yr = bref.row(j);
        double ref = 0.0;
        for (std::size_t p = 0; p < k; ++p) ref += xsum[p] * yr[p];
        note(std::abs(tcsum[j - tile.col0] - ref), tol_col);
      }
      check_scratch_[t] = check;
    }
  });

  for (const EventCounter& ev : event_scratch_) res.events += ev;

  if (guarded) {
    res.guard.enabled = true;
    res.guard.tiles_checked = tiles.size();
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const TileCheck& check = check_scratch_[t];
      if (!check.ok) {
        ++res.guard.mismatched_tiles;
        if (res.guard.first_mismatch == static_cast<std::size_t>(-1)) res.guard.first_mismatch = t;
      }
      // NaN-safe fold: a NaN tile residual must stick as the product's
      // worst, not vanish under an ordinary comparison.
      if (std::isnan(check.worst_residual) || check.worst_residual > res.guard.worst_residual) {
        res.guard.worst_residual = check.worst_residual;
        res.guard.worst_tolerance = check.tolerance;
      }
      res.guard.checksum_events += checksum_lane_events(tiles[t].rows, tiles[t].cols, k, chunks);
    }
  }
  return res;
}

EventCounter PhotonicGemm::count_events(std::size_t m, std::size_t k, std::size_t n) const {
  EventCounter ev;
  // Chunking follows the *usable* wavelengths: dead lanes fenced off by
  // the lane mask stretch every reduction over more cycles.
  const std::size_t nl = engine_.active_wavelengths();
  const std::size_t chunks = (k + nl - 1) / nl;
  for (std::size_t i0 = 0; i0 < m; i0 += cfg_.array_rows) {
    const std::size_t h = std::min(cfg_.array_rows, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += cfg_.array_cols) {
      const std::size_t w = std::min(cfg_.array_cols, n - j0);
      // One tile step: h A-rows and w B-columns are modulated once each
      // and broadcast across the tile; every DDot reduces k elements.
      ev.modulation_events += (h + w) * k;
      ev.ddot_ops += h * w * chunks;
      ev.detection_events += h * w * chunks;
      ev.macs += h * w * k;
      ev.adc_events += h * w;
      ev.cycles += chunks;
    }
  }
  return ev;
}

}  // namespace pdac::ptc
