#include "ptc/abft.hpp"

#include <algorithm>
#include <array>
#include <cfloat>
#include <cmath>

#include "common/require.hpp"
#include "ptc/dot_engine.hpp"
#include "ptc/noise_analysis.hpp"

namespace pdac::ptc {

namespace {

/// Four checksum references at once: out[l] = Σ_p x[l][p]·y[l][p].  Each
/// lane keeps the one-lane fold's ascending-p `ref += x[p] * y[p]`
/// sequence and operand order, so every result is bit-identical to it;
/// the lanes only interleave for instruction-level parallelism.
/// (simd::dot4 folds differently and would move the residual bits.)
void fold_refs4(const std::array<const double*, 4>& x, const std::array<const double*, 4>& y,
                std::size_t k, std::array<double, 4>& out) {
  double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
  for (std::size_t p = 0; p < k; ++p) {
    r0 += x[0][p] * y[0][p];
    r1 += x[1][p] * y[1][p];
    r2 += x[2][p] * y[2][p];
    r3 += x[3][p] * y[3][p];
  }
  out = {r0, r1, r2, r3};
}

/// The calibration-state encoding the references are built from.
const Matrix& golden(const PreparedOperand& op) {
  return op.reference.size() > 0 ? op.reference : op.encoded;
}

}  // namespace

double guard_tolerance(const GuardConfig& cfg, std::size_t k, std::size_t fan, double mag) {
  PDAC_REQUIRE(cfg.noise_zscore >= 0.0 && cfg.noise_sigma >= 0.0 && cfg.fp_slack >= 0.0,
               "guard_tolerance: band parameters must be non-negative");
  const double terms = static_cast<double>(fan + 1);
  const double fp = cfg.fp_slack * DBL_EPSILON * static_cast<double>(k) * terms *
                    std::max(std::abs(mag), 1.0);
  const double noise = cfg.noise_zscore * cfg.noise_sigma * std::sqrt(terms);
  return fp + noise;
}

double calibrate_guard_sigma(const DotEngineConfig& dot, std::size_t k) {
  double variance = 0.0;

  if (dot.adc_readout) {
    // apply_adc digitizes each raw dot over full scale 2·fs (fs defaults
    // to the reduction length); one LSB is 2·fs / 2^bits and the
    // quantization noise of a rounding converter is step/√12.
    const double fs = dot.adc_full_scale > 0.0 ? dot.adc_full_scale : static_cast<double>(k);
    const double step = 2.0 * fs / static_cast<double>(1u << dot.adc_bits);
    variance += step * step / 12.0;
  }

  const auto& pd = dot.pd_noise;
  if (pd.enabled && (pd.thermal_noise_std > 0.0 || pd.shot_noise_scale > 0.0)) {
    // Measure the per-chunk detection noise the way the SNR bench does,
    // then stretch it over the ⌈k/λ⌉ chunks a length-k reduction takes.
    SnrConfig snr;
    snr.wavelengths = dot.wavelengths;
    snr.noise = pd;
    const SnrReport rep = measure_ddot_snr(snr);
    const std::size_t nl = std::max<std::size_t>(dot.wavelengths, 1);
    const double chunks = std::ceil(static_cast<double>(std::max<std::size_t>(k, 1)) /
                                    static_cast<double>(nl));
    variance += rep.noise_rms * rep.noise_rms * chunks;
  }

  return std::sqrt(variance);
}

EventCounter checksum_lane_events(std::size_t h, std::size_t w, std::size_t k,
                                  std::size_t chunks, bool column_only) {
  EventCounter ev;
  // One extra A row and one extra B column modulated per tile step; the
  // h + w checksum outputs are detected, reduced and digitized like data
  // lanes.  The spare row/column computes inside the same tile step, so
  // occupancy cycles are unchanged.  Column-only mode keeps just the
  // spare A row (Σ_i x′_i) and its w column-lane outputs.
  const std::size_t lanes = column_only ? w : h + w;
  ev.modulation_events = (column_only ? 1 : 2) * k;
  ev.adc_events = lanes;
  ev.ddot_ops = lanes * chunks;
  ev.detection_events = lanes * chunks;
  ev.macs = lanes * k;
  ev.cycles = 0;
  return ev;
}

TileCheck check_tile(const GuardConfig& guard, const Tile& tile, std::size_t k,
                     const PreparedOperand& a, const PreparedOperand& b, const double* rsum,
                     const double* csum, double rescale, Matrix& c) {
  TileCheck check;
  // The deterministic band scales with the raw dot magnitudes, which
  // |x′·y′| ≤ 1 per element bounds by k.
  const double mag = static_cast<double>(k);
  const double tol_row = guard_tolerance(guard, k, tile.cols, mag);
  const double tol_col = guard_tolerance(guard, k, tile.rows, mag);
  // band == 1 collapses the drift zone and reproduces the pre-drift
  // verdicts bit for bit.
  const double band = std::max(1.0, guard.drift_band);
  // Out-of-band lane bookkeeping for single-error correction: one bad
  // row lane × one bad column lane pinpoints the corrupted element.
  // "Bad" is judged at the *outer* band edge, so lanes drifting inside
  // the band cannot blur a hard strike's single-error signature.
  std::size_t bad_rows = 0, bad_cols = 0;
  std::size_t sec_row = 0, sec_col = 0;
  double row_delta = 0.0, col_delta = 0.0;
  const auto judge = [&](double res, double tol, std::size_t at, std::size_t& bad,
                         std::size_t& sec, double& delta) {
    const double r = std::abs(res);
    fold_worst(r, tol, check.worst_residual, check.tolerance);
    if (std::isnan(r) || r > band * tol) {
      check.ok = false;
      ++bad;
      sec = at;
      delta = res;
    } else if (r > tol) {
      check.drift_ratio = std::max(check.drift_ratio, r / tol);
    }
  };
  // References fold four lanes at a time; a ragged group repeats its last
  // lane and judges only the real ones, in ascending order.
  std::array<const double*, 4> xl{};
  std::array<const double*, 4> yl{};
  std::array<double, 4> ref{};
  if (!guard.column_only) {
    const Matrix& ag = golden(a);
    yl.fill(b.checksum.row(tile.col0 / b.checksum_stripe).data());
    for (std::size_t g = 0; g < tile.rows; g += 4) {
      const std::size_t lanes = std::min<std::size_t>(4, tile.rows - g);
      for (std::size_t l = 0; l < 4; ++l) {
        xl[l] = ag.row(tile.row0 + g + std::min(l, lanes - 1)).data();
      }
      fold_refs4(xl, yl, k, ref);
      for (std::size_t l = 0; l < lanes; ++l) {
        judge(rsum[g + l] - ref[l], tol_row, tile.row0 + g + l, bad_rows, sec_row, row_delta);
      }
    }
  }
  const Matrix& bg = golden(b);
  xl.fill(a.checksum.row(tile.row0 / a.checksum_stripe).data());
  for (std::size_t g = 0; g < tile.cols; g += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, tile.cols - g);
    for (std::size_t l = 0; l < 4; ++l) {
      yl[l] = bg.row(tile.col0 + g + std::min(l, lanes - 1)).data();
    }
    fold_refs4(xl, yl, k, ref);
    for (std::size_t l = 0; l < lanes; ++l) {
      judge(csum[g + l] - ref[l], tol_col, tile.col0 + g + l, bad_cols, sec_col, col_delta);
    }
  }

  // Both residuals estimate the same raw accumulator error, so when they
  // agree the element at the intersection is corrected digitally and no
  // escalation rung fires.  Lane-class faults corrupt whole encode rows
  // or columns and never present this signature.  The agreement window
  // widens with the band: a strike on lanes drifting mid-band sees each
  // delta contaminated by up to band·tol of absorbed wander.
  if (!check.ok && guard.sec_correction && !guard.column_only && bad_rows == 1 &&
      bad_cols == 1 && std::isfinite(row_delta) && std::isfinite(col_delta) &&
      std::abs(row_delta - col_delta) <= band * (tol_row + tol_col)) {
    c(sec_row, sec_col) -= row_delta * rescale;
    check.ok = true;
    check.corrected = 1;
  }
  return check;
}

void fold_checks(std::span<const TileCheck> checks, GuardOutcome& out) {
  for (std::size_t t = 0; t < checks.size(); ++t) {
    const TileCheck& check = checks[t];
    if (!check.ok) {
      if (out.mismatched_tiles == 0) out.first_mismatch = t;
      ++out.mismatched_tiles;
    }
    out.tiles_corrected += check.corrected;
    fold_worst(check.worst_residual, check.tolerance, out.worst_residual, out.worst_tolerance);
  }
}

void tally_drift(std::span<const TileCheck> checks, GuardOutcome& out) {
  for (const TileCheck& check : checks) {
    if (check.drift_ratio > 0.0) ++out.drift_tiles;
    out.worst_drift_ratio = std::max(out.worst_drift_ratio, check.drift_ratio);
  }
}

}  // namespace pdac::ptc
