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

OperandBuilder PhotonicGemm::builder(std::uint64_t epoch) const {
  const bool quant = cfg_.path == ExecutionPath::kKernelQuant;
  OperandLayout layout{epoch, {}, false, quant, cfg_.guard.enabled ? cfg_.array_cols : 0};
  return OperandBuilder(
      std::move(layout),
      [this, quant](const EncodeSpan& s) {
        if (quant) {
          engine_.encode_span(s.norm, s.encoded, s.qcodes);
        } else {
          engine_.encode_span(s.norm, s.encoded);
        }
      },
      *pool_, norm_scratch_);
}

PreparedOperand PhotonicGemm::prepare(const Matrix& src, SourceForm form,
                                      std::uint64_t epoch) const {
  return builder(epoch).prepare(src, form);
}

bool PhotonicGemm::append(PreparedOperand& pb, const Matrix& src, SourceForm form,
                          std::uint64_t epoch) const {
  return builder(epoch).append(pb, src, form);
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
    // Broadcast-amortization contract (see header): every tile step is
    // charged, B-column modulation included — the hardware modulates per
    // tile step even when the simulator reuses a prepared encoding.
    EventCounter& ev = event_scratch_[t];
    ev = tile_events(tile, k, engine_.active_wavelengths());
    if (product_level) {
      // Outputs already written by the product-level sweep above.
    } else if (path == ExecutionPath::kKernel) {
      // Fused flat-array kernel: the whole tile in one pass, raw sums
      // accumulated in the same order as the device-graph loop below.
      kernel_.run_tile(tile, ae, b.encoded, rescale, res.c, trsum, tcsum);
    } else {
      // The device graph is the reference: its detection, DDot and MAC
      // counts come from the dots it runs, not from the closed form.
      const Ddot& ddot = worker_ddots_[worker];
      DdotScratch& scratch = worker_scratch_[worker];
      ev.detection_events = ev.ddot_ops = ev.macs = 0;
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
          // first(k) strips any column-capacity padding off the prepared
          // row — the device path takes equal-length spans.
          const double raw = engine_.dot_preencoded(ae.row(i), b.encoded.row(j).first(k),
                                                    &ev, &ddot, &scratch);
          res.c(i, j) = raw * rescale;
          if (guarded) {
            trsum[i - tile.row0] += raw;
            tcsum[j - tile.col0] += raw;
          }
        }
      }
    }
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
  // Chunking follows the *usable* wavelengths: dead lanes fenced off by
  // the lane mask stretch every reduction over more cycles.
  EventCounter ev;
  for (const Tile& tile : partition_tiles(m, n, cfg_.array_rows, cfg_.array_cols)) {
    ev += tile_events(tile, k, engine_.active_wavelengths());
  }
  return ev;
}

}  // namespace pdac::ptc
