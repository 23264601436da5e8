#include "ptc/gemm_engine.hpp"

#include "common/require.hpp"

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
  PDAC_REQUIRE(!(cfg_.guard.enabled && cfg_.guard.column_only),
               "PhotonicGemm: a column-only guard detects nothing here — its column lanes "
               "reference the encoded operand itself; use the full guard");
  worker_ddots_.reserve(pool_->size());
  for (std::size_t w = 0; w < pool_->size(); ++w) {
    worker_ddots_.push_back(engine_.make_worker_ddot());
  }
  worker_scratch_.resize(pool_->size());
}

GemmResult PhotonicGemm::multiply(const Matrix& a, const Matrix& b) const {
  return multiply_prepared(a, prepare_b(b));
}

OperandBuilder PhotonicGemm::builder(std::uint64_t epoch, std::size_t checksum_stripe) const {
  const bool quant = cfg_.path == ExecutionPath::kKernelQuant;
  OperandLayout layout{epoch, {}, false, quant, cfg_.guard.enabled ? checksum_stripe : 0};
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
  return builder(epoch, cfg_.array_cols).prepare(src, form);
}

bool PhotonicGemm::append(PreparedOperand& pb, const Matrix& src, SourceForm form,
                          std::uint64_t epoch) const {
  return builder(epoch, cfg_.array_cols).append(pb, src, form);
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
  const std::size_t k = a.cols();

  // A-side pipeline: A is already Bᵀ-shaped, so a kBt prepare into
  // per-engine scratch encodes its rows — with their codes on the quant
  // tier and their array_rows-high checksum stripes when guarded.
  builder(0, cfg_.array_rows).prepare(a, SourceForm::kBt, a_scratch_);
  const PreparedOperand& pa = a_scratch_;
  const Matrix& ae = pa.encoded;

  GemmResult res;
  res.a_scale = pa.scale;
  res.b_scale = b.scale;
  res.c = Matrix(a.rows(), b.cols);
  const double rescale = pa.scale * b.scale;

  partition_tiles_into(a.rows(), b.cols, cfg_.array_rows, cfg_.array_cols, tile_scratch_);
  const std::vector<Tile>& tiles = tile_scratch_;
  const std::size_t chunks = (k + engine_.active_wavelengths() - 1) / engine_.active_wavelengths();

  // Per-tile counters land in tile-index slots and are folded in index
  // order after the join, so accounting is deterministic at any thread
  // count (the numerics are deterministic element-wise anyway).
  event_scratch_.assign(tiles.size(), EventCounter{});

  // The raw tile sums the guard judges live in two product-wide arrays,
  // each tile's slice contiguous: rsum[s·m + i] for column stripe s,
  // csum[(i/H)·n + j] for row stripe i/H.
  const std::size_t m = a.rows();
  const std::size_t n = b.cols;
  double* rsum = nullptr;
  double* csum = nullptr;
  // Verdicts only: the guarded product stays bit-identical to the
  // unguarded one, so single-error correction never edits it here — a
  // corrupted cached operand must read as a mismatch, whose repair is a
  // re-prepare (nn::PhotonicBackend), not a per-element patch.
  GuardConfig judge = cfg_.guard;
  judge.sec_correction = false;
  if (guarded) {
    check_scratch_.assign(tiles.size(), TileCheck{});
    rsum_scratch_.assign(b.checksum.rows() * m, 0.0);
    csum_scratch_.assign(pa.checksum.rows() * n, 0.0);
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
    kernel_.run_product_quant(pa.qcodes, b.qcodes, cfg_.array_rows, cfg_.array_cols, rescale,
                              *pool_, res.c, rsum, csum);
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
      check_scratch_[t] = check_tile(judge, tile, k, pa, b, trsum, tcsum, rescale, res.c);
    }
  });

  for (const EventCounter& ev : event_scratch_) res.events += ev;

  if (guarded) {
    res.guard.enabled = true;
    res.guard.tiles_checked = tiles.size();
    fold_checks(check_scratch_, res.guard);
    tally_drift(check_scratch_, res.guard);
    for (const Tile& tile : tiles) {
      res.guard.checksum_events += checksum_lane_events(tile.rows, tile.cols, k, chunks);
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
