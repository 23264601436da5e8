#include "ptc/kernel.hpp"

#include <algorithm>
#include <vector>

#include "common/require.hpp"
#include "common/simd.hpp"

namespace pdac::ptc {

namespace {

// Reduces NB independent dots against a shared x row in one pass — the
// scalar tier's only reduction (NB = 1 for a single dot).  Each dot keeps
// its own serial floating-point sequence; the dots are merely
// interleaved, never mixed, so NB-wide blocking changes no bit.  The
// payoff is ILP: a single dot is latency-bound on its two accumulation
// chains (sp/sm), while NB dots give the core 2·NB independent chains
// plus one load of x and the lane coefficients per NB dots.
template <std::size_t NB>
void reduce_block(const LaneTransfer* lanes, std::size_t nl, const DetectorTransfer& det,
                  bool full_optics, const double* xe, const double* const* ys, std::size_t n,
                  double* out) {
  if (!full_optics) {
    // Fast-path engines reduce encoded amplitudes directly; the chunked
    // loop flattens to one pass (chunk boundaries do not reassociate).
    double acc[NB] = {};
    for (std::size_t p = 0; p < n; ++p) {
      const double x = xe[p];
      for (std::size_t b = 0; b < NB; ++b) acc[b] += x * ys[b][p];
    }
    for (std::size_t b = 0; b < NB; ++b) out[b] = acc[b];
    return;
  }
  double acc[NB] = {};
  for (std::size_t base = 0; base < n; base += nl) {
    const std::size_t len = std::min(nl, n - base);
    double sp[NB] = {};
    double sm[NB] = {};
    for (std::size_t i = 0; i < len; ++i) {
      const LaneTransfer& ln = lanes[i];
      const double x = xe[base + i];
      const double tx = ln.t * x;
      const double kx = ln.jk_im * x;
      for (std::size_t b = 0; b < NB; ++b) {
        // The device graph expands the full complex products on (x + 0j)/
        // (y + 0j) operands; this loop drops every term that is an exact
        // IEEE zero there.  That is bit-preserving, not approximate:
        //   * jk_re = 0.0·κ is a literal signed zero (couple() builds j·κ
        //     as Complex{0,1}·κ), and every dropped term is `a·(±0)` or
        //     `(±0) + b` / `(±0) − b`, which leave any non-zero operand's
        //     bits untouched (q ± 0 == q, 0 − q == −q);
        //   * the only values that CAN differ are the signs of zeros, and
        //     every rail amplitude is consumed by |E|² below, where
        //     (±0)² == +0 — so the chunk sums, and hence the dot, match
        //     the device graph bit for bit;
        //   * operand amplitudes are encode-LUT outputs, hence finite —
        //     no NaN/Inf whose propagation a dropped term could alter.
        const double y = ys[b][base + i];
        const double lr = ln.ps_re * y;
        const double li = ln.ps_im * y;
        // Coupler: upper' = t·x − κ·li + j·(κ·lr), lower' = t·lr + j·(κ·x + t·li).
        const double ur = tx - ln.jk_im * li;
        const double ui = ln.jk_im * lr;
        const double wr = ln.t * lr;
        const double wi = kx + ln.t * li;
        // Balanced detection integrates I = Σ ½|E|² in ascending channel
        // order; inactive channels contribute exactly +0.0 and are skipped.
        sp[b] += 0.5 * (ur * ur + ui * ui);
        sm[b] += 0.5 * (wr * wr + wi * wi);
      }
    }
    for (std::size_t b = 0; b < NB; ++b) {
      acc[b] += (det.gain_plus * sp[b] + det.dark_plus) -
                (det.gain_minus * sm[b] + det.dark_minus);
    }
  }
  for (std::size_t b = 0; b < NB; ++b) out[b] = acc[b];
}

}  // namespace

FusedKernel::FusedKernel(const PhotonicDotEngine& engine)
    : FusedKernel(engine.ddot(), engine.config()) {
  // The integer tier is certified per engine, not per device chain: only
  // the engine knows whether its encode LUT sits on the quantizer grid.
  quant_ready_ = engine.encode_on_quant_grid();
  max_code_ = engine.quantizer().max_code();
}

FusedKernel::FusedKernel(const Ddot& ddot, const DotEngineConfig& cfg) {
  PDAC_REQUIRE(cfg.wavelengths >= 1, "FusedKernel: at least one wavelength");
  PDAC_REQUIRE(cfg.lane_mask.empty() || cfg.lane_mask.size() == cfg.wavelengths,
               "FusedKernel: lane mask must cover every wavelength");
  full_optics_ = cfg.use_full_optics;
  adc_ = cfg.adc_readout;
  adc_bits_ = cfg.adc_bits;
  adc_full_scale_ = cfg.adc_full_scale;

  // The j·κ factor is snapshotted through the same expression the coupler
  // evaluates (Complex{0,1} · κ), so even its signed-zero real part is
  // reproduced exactly.
  const photonics::Complex f = ddot.phase_shifter().factor();
  const photonics::Complex jk = photonics::Complex{0.0, 1.0} * ddot.coupler().coupling();
  LaneTransfer lane;
  lane.ps_re = f.real();
  lane.ps_im = f.imag();
  lane.t = ddot.coupler().transmission();
  lane.jk_re = jk.real();
  lane.jk_im = jk.imag();

  // Fence mask folds into the packing: operands ride the surviving
  // wavelengths only, exactly like PhotonicDotEngine::active_lanes_.
  std::size_t active = 0;
  for (std::size_t ch = 0; ch < cfg.wavelengths; ++ch) {
    if (cfg.lane_mask.empty() || cfg.lane_mask[ch] != 0u) ++active;
  }
  PDAC_REQUIRE(active >= 1, "FusedKernel: lane mask leaves no usable wavelength");
  lanes_.assign(active, lane);

  det_.gain_plus = ddot.pd_plus().effective_responsivity();
  det_.dark_plus = ddot.pd_plus().config().dark_current;
  det_.gain_minus = ddot.pd_minus().effective_responsivity();
  det_.dark_minus = ddot.pd_minus().config().dark_current;
}

double FusedKernel::reduce(std::span<const double> xe, std::span<const double> ye) const {
  const double* y = ye.data();
  double acc = 0.0;
  reduce_block<1>(lanes_.data(), lanes_.size(), det_, full_optics_, xe.data(), &y, xe.size(),
                  &acc);
  return acc;
}

converters::ElectricalAdc FusedKernel::make_adc(std::size_t k) const {
  // The ADC's behavior depends only on bits and full scale (auto: the
  // reduction length), so one instance serves every dot of a tile or
  // product.
  converters::ElectricalAdcConfig ac;
  ac.bits = adc_bits_;
  ac.v_ref = adc_full_scale_ > 0.0 ? adc_full_scale_
                                   : static_cast<double>(std::max<std::size_t>(k, 1));
  return converters::ElectricalAdc(ac);
}

double FusedKernel::dot(std::span<const double> xe, std::span<const double> ye,
                        EventCounter* ev) const {
  PDAC_REQUIRE(xe.size() == ye.size(), "FusedKernel: operand length mismatch");
  const std::size_t n = xe.size();
  if (ev != nullptr) {
    // A standalone dot charges only its reduction (dot_preencoded's
    // convention): modulation, sampling and cycles are the caller's.
    const EventCounter t = tile_events(Tile{0, 0, 1, 1}, n, lanes_.size());
    ev->detection_events += t.detection_events;
    ev->ddot_ops += t.ddot_ops;
    ev->macs += t.macs;
  }
  const double acc = reduce(xe, ye);
  return adc_ ? make_adc(n).sample_to_voltage(acc) : acc;
}

void FusedKernel::run_tile(const Tile& tile, const Matrix& ae, const Matrix& be,
                           double rescale, Matrix& c, double* rsum, double* csum) const {
  const std::size_t k = ae.cols();
  // >=: prepared operands may pad the reduction axis with physical
  // column capacity (PreparedOperand shape contract); every loop here
  // is bounded by the A-side k, so padding is never read.
  PDAC_REQUIRE(be.cols() >= k, "FusedKernel: operand reduction lengths must agree");
  // The reduction length is fixed across the tile, so the ADC is built
  // once instead of per dot — identical round-trip, hoisted construction.
  const converters::ElectricalAdc adc = make_adc(k);
  const auto emit = [&](std::size_t i, std::size_t j, double raw) {
    if (adc_) raw = adc.sample_to_voltage(raw);
    c(i, j) = raw * rescale;
    if (rsum != nullptr) rsum[i - tile.row0] += raw;
    if (csum != nullptr) csum[j - tile.col0] += raw;
  };
  constexpr std::size_t kBlock = 4;
  const std::size_t col_end = tile.col0 + tile.cols;
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    const double* x = ae.row(i).data();
    std::size_t j = tile.col0;
    // Blocked main loop: four dots per pass for ILP (see reduce_block);
    // the raw values and their rsum/csum accumulation order match the
    // scalar loop exactly — j still ascends within the row.
    for (; j + kBlock <= col_end; j += kBlock) {
      const double* ys[kBlock];
      for (std::size_t b = 0; b < kBlock; ++b) ys[b] = be.row(j + b).data();
      double raw[kBlock];
      reduce_block<kBlock>(lanes_.data(), lanes_.size(), det_, full_optics_, x, ys, k, raw);
      for (std::size_t b = 0; b < kBlock; ++b) emit(i, j + b, raw[b]);
    }
    for (; j < col_end; ++j) emit(i, j, reduce({x, k}, be.row(j)));
  }
}

namespace {

/// Closed quadratic form of the full-optics physics.  Every lane shares
/// one coefficient row (the constructor assigns the same LaneTransfer to
/// all active wavelengths — a class invariant), so the per-element rail
/// intensities collapse algebraically:
///
///   sp_e = ½[t²·x² + κ²·|f|²·y² − 2tκ·ps_im·x·y]
///   sm_e = ½[κ²·x² + t²·|f|²·y² + 2tκ·ps_im·x·y]      |f|² = ps_re²+ps_im²
///
///   g₊·Σsp − g₋·Σsm + chunks·(d₊ − d₋)
///     = cxx·Σx² + cyy·Σy² + cxy·Σxy + dark
///
/// with cxx = ½(g₊t² − g₋κ²), cyy = ½|f|²(g₊κ² − g₋t²),
/// cxy = −tκ·ps_im·(g₊ + g₋), dark = chunks·(d₊ − d₋).  A product then
/// reduces to plain dot products: Σx² per A row, Σy² per B column, Σxy
/// per output.
struct QuadForm {
  double cxx{0.0};
  double cyy{0.0};
  double cxy{0.0};
  double dark{0.0};
};

QuadForm quad_form(const LaneTransfer& ln, const DetectorTransfer& det, std::uint64_t chunks) {
  const double f2 = ln.ps_re * ln.ps_re + ln.ps_im * ln.ps_im;
  const double t2 = ln.t * ln.t;
  const double k2 = ln.jk_im * ln.jk_im;
  QuadForm q;
  q.cxx = 0.5 * (det.gain_plus * t2 - det.gain_minus * k2);
  q.cyy = 0.5 * f2 * (det.gain_plus * k2 - det.gain_minus * t2);
  q.cxy = -ln.t * ln.jk_im * ln.ps_im * (det.gain_plus + det.gain_minus);
  q.dark = static_cast<double>(chunks) * (det.dark_plus - det.dark_minus);
  return q;
}

/// The SIMD tier's reductions (common/simd.hpp), in amplitude units.
struct SimdOps {
  using Matrix_t = Matrix;
  static constexpr std::size_t kElemBytes = sizeof(double);
  std::size_t k;
  double self(const double* v) const { return simd::dot_self(v, k); }
  double dot(const double* x, const double* y) const { return simd::dot(x, y, k); }
  void block(const double* const x[2], std::size_t rows, const double* const y[4],
             double out[2][4]) const {
    if (rows == 2) {
      simd::dot2x4(x, y, k, out);
    } else {
      simd::dot4(x[0], y, k, out[0]);
    }
  }
};

/// The quant tier's exact integer reductions, scaled once to amplitude
/// units: on-grid, x = cx/mc and y = cy/mc bitwise, so Σxy = Σcx·cy/mc²
/// with the numerator exact (|Σcx·cy| ≤ k·mc² ≪ 2⁵³ keeps the int64 →
/// double conversion exact too) — one division per sum instead of a
/// k-term floating chain.  Integer sums are order-free, so a 2-row block
/// is two 4-column dots.
struct QuantOps {
  using Matrix_t = CodeMatrix;
  static constexpr std::size_t kElemBytes = sizeof(std::int16_t);
  std::size_t k;
  std::int32_t mc;
  double mc2;
  double self(const std::int16_t* v) const {
    return static_cast<double>(simd::dot_self_i16(v, k, mc)) / mc2;
  }
  double dot(const std::int16_t* x, const std::int16_t* y) const {
    return static_cast<double>(simd::dot_i16(x, y, k, mc)) / mc2;
  }
  void block(const std::int16_t* const x[2], std::size_t rows, const std::int16_t* const y[4],
             double out[2][4]) const {
    for (std::size_t r = 0; r < rows; ++r) {
      std::int64_t ixy[4];
      simd::dot4_i16(x[r], y, k, mc, ixy);
      for (std::size_t b = 0; b < 4; ++b) out[r][b] = static_cast<double>(ixy[b]) / mc2;
    }
  }
};

/// B bytes one group of column stripes may occupy, so the group stays in
/// L2 while every A row streams past it.  1 MiB is about half a current
/// server core's L2; on a 2 MiB-L2 host it timed best of 16 KiB-4 MiB
/// for BERT-base-width products.
constexpr std::size_t kGroupBytes = std::size_t{1} << 20;

/// One fast-tier product (contract: FusedKernel::run_product_fast).
/// `qf` is null without full optics, `adc` null without ADC readout.
template <class Ops>
void sweep_product(const Ops& ops, const typename Ops::Matrix_t& ae,
                   const typename Ops::Matrix_t& be, std::size_t h, std::size_t w,
                   const QuadForm* qf, const converters::ElectricalAdc* adc, double rescale,
                   ThreadPool& pool, Matrix& c, double* rsum, double* csum) {
  const std::size_t m = ae.rows();
  const std::size_t n = be.rows();
  // >=: prepared operands may pad the reduction axis with physical
  // column capacity (PreparedOperand shape contract); every reduction is
  // bounded by the A-side k, so padding is never read.
  PDAC_REQUIRE(be.cols() >= ops.k, "FusedKernel: operand reduction lengths must agree");
  PDAC_REQUIRE(c.rows() == m && c.cols() == n, "FusedKernel: output shape must be m × n");
  PDAC_REQUIRE((rsum == nullptr) == (csum == nullptr), "FusedKernel: guard sums come as a pair");
  std::vector<double> sxx(qf != nullptr ? m : 0);  // Σx² per A row
  std::vector<double> syy(qf != nullptr ? n : 0);  // Σy² per B column
  for (std::size_t i = 0; i < sxx.size(); ++i) sxx[i] = ops.self(ae.row(i).data());
  double* const out = c.data().data();
  const auto readout = [&](std::size_t i, std::size_t j, std::size_t s, double sxy) {
    double r = qf != nullptr ? qf->cxx * sxx[i] + qf->cyy * syy[j] + qf->cxy * sxy + qf->dark
                             : sxy;
    if (adc != nullptr) r = adc->sample_to_voltage(r);
    out[i * n + j] = r * rescale;
    if (rsum != nullptr) {
      rsum[s * m + i] += r;
      csum[(i / h) * n + j] += r;
    }
  };
  // Rows [i, i + rows) against column stripe s: 4-column blocks from the
  // stripe start, then its last w mod 4 columns one by one, so an
  // output's reduction depends only on its place in its stripe.
  const auto stripe = [&](std::size_t i, std::size_t rows, std::size_t s) {
    const auto* x0 = ae.row(i).data();
    const decltype(x0) x[2] = {x0, rows == 2 ? ae.row(i + 1).data() : x0};
    const std::size_t col_end = std::min(s * w + w, n);
    std::size_t j = s * w;
    for (; j + 4 <= col_end; j += 4) {
      const decltype(x0) y[4] = {be.row(j).data(), be.row(j + 1).data(), be.row(j + 2).data(),
                                 be.row(j + 3).data()};
      double sxy[2][4];
      ops.block(x, rows, y, sxy);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t b = 0; b < 4; ++b) readout(i + r, j + b, s, sxy[r][b]);
      }
    }
    for (; j < col_end; ++j) {
      for (std::size_t r = 0; r < rows; ++r) readout(i + r, j, s, ops.dot(x[r], be.row(j).data()));
    }
  };
  const std::size_t stripes = (n + w - 1) / w;
  const std::size_t stripe_bytes = std::max<std::size_t>(1, w * ops.k * Ops::kElemBytes);
  const std::size_t group = std::max<std::size_t>(1, kGroupBytes / stripe_bytes);
  pool.parallel_for(stripes, [&](std::size_t s_begin, std::size_t s_end, std::size_t) {
    for (std::size_t g0 = s_begin; g0 < s_end; g0 += group) {
      const std::size_t g1 = std::min(g0 + group, s_end);
      if (qf != nullptr) {
        for (std::size_t j = g0 * w; j < std::min(g1 * w, n); ++j) {
          syy[j] = ops.self(be.row(j).data());
        }
      }
      for (std::size_t i = 0; i < m; i += 2) {
        for (std::size_t s = g0; s < g1; ++s) stripe(i, std::min<std::size_t>(2, m - i), s);
      }
    }
  });
}

}  // namespace

void FusedKernel::run_product_fast(const Matrix& ae, const Matrix& be, std::size_t tile_rows,
                                   std::size_t tile_cols, double rescale, ThreadPool& pool,
                                   Matrix& c, double* rsum, double* csum) const {
  const std::size_t k = ae.cols();
  const converters::ElectricalAdc adc = make_adc(k);
  const QuadForm qf = quad_form(lanes_.front(), det_, (k + lanes_.size() - 1) / lanes_.size());
  sweep_product(SimdOps{k}, ae, be, tile_rows, tile_cols, full_optics_ ? &qf : nullptr,
                adc_ ? &adc : nullptr, rescale, pool, c, rsum, csum);
}

void FusedKernel::run_product_quant(const CodeMatrix& aq, const CodeMatrix& bq,
                                    std::size_t tile_rows, std::size_t tile_cols,
                                    double rescale, ThreadPool& pool, Matrix& c, double* rsum,
                                    double* csum) const {
  PDAC_REQUIRE(quant_ready_,
               "FusedKernel: run_product_quant needs an on-grid encode LUT (quant_ready)");
  const std::size_t k = aq.cols();
  const converters::ElectricalAdc adc = make_adc(k);
  const QuadForm qf = quad_form(lanes_.front(), det_, (k + lanes_.size() - 1) / lanes_.size());
  const double mc2 = static_cast<double>(max_code_) * static_cast<double>(max_code_);
  sweep_product(QuantOps{k, max_code_, mc2}, aq, bq, tile_rows, tile_cols,
                full_optics_ ? &qf : nullptr, adc_ ? &adc : nullptr, rescale, pool, c, rsum,
                csum);
}

}  // namespace pdac::ptc
