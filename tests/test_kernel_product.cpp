// Bit-identity pins for the fast tiers' product-level loop (DESIGN.md
// §13/§15).  The SIMD and quant tiers sweep a whole product at once —
// norms hoisted per row/column, B column stripes traversed in cache-sized
// groups, a 2×4 register block — yet every output, event count and guard
// verdict must stay the bits the per-tile form of the same tiers gave.
// The digests below were recorded from that per-tile form; where a
// digest cannot hold across compilers (SIMD without ADC) a per-tile
// oracle stands in.  Both are checked across array shapes, ragged edges,
// guard on/off and thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "converters/quantizer.hpp"
#include "core/modulator_driver.hpp"
#include "ptc/abft.hpp"
#include "ptc/gemm_engine.hpp"
#include "ptc/kernel.hpp"
#include "ptc/tile_scheduler.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

/// FNV-1a over the exact bits of everything a product reports.
struct Digest {
  std::uint64_t h{1469598103934665603ull};
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void events(const EventCounter& ev) {
    for (const std::uint64_t v : {ev.modulation_events, ev.detection_events, ev.adc_events,
                                  ev.ddot_ops, ev.macs, ev.cycles}) {
      u64(v);
    }
  }
};

std::uint64_t output_digest(const GemmResult& r) {
  Digest d;
  d.u64(r.c.rows());
  d.u64(r.c.cols());
  d.bytes(r.c.data().data(), r.c.size() * sizeof(double));
  d.events(r.events);
  d.f64(r.a_scale);
  d.f64(r.b_scale);
  return d.h;
}

std::uint64_t guard_digest(const GuardOutcome& g) {
  Digest d;
  d.u64(g.enabled ? 1 : 0);
  d.u64(g.tiles_checked);
  d.u64(g.mismatched_tiles);
  d.u64(g.first_mismatch);
  d.f64(g.worst_residual);
  d.f64(g.worst_tolerance);
  d.u64(g.tiles_corrected);
  d.u64(g.drift_tiles);
  d.f64(g.worst_drift_ratio);
  d.events(g.checksum_events);
  return d.h;
}

enum class Tier { kSimd, kQuant };

struct Pin {
  std::size_t array_rows;
  std::size_t array_cols;
  bool adc;
  std::uint64_t output;  ///< folded output digests over every shape
  std::uint64_t guard;   ///< folded guard digests over every shape
};

/// Calls check(label, gemm, a, pb, result) for every shape of
/// m ∈ {1, 7, 128} × k ∈ {5, 64, 770} × n ∈ {3, 13, 768} on one tier,
/// array and readout, unguarded then guarded, at threads 1 then 4.  One
/// prepared element per product is corrupted after prepare, so guarded
/// runs also pin a mismatch site.
template <class Check>
void for_each_case(Tier tier, std::size_t array_rows, std::size_t array_cols, bool adc,
                   Check check) {
  const bool quant = tier == Tier::kQuant;
  const auto drv = quant ? core::make_bit_true_driver(8) : core::make_pdac_driver(8);
  std::uint64_t seed = 100;
  for (const std::size_t m : {1u, 7u, 128u}) {
    for (const std::size_t k : {5u, 64u, 770u}) {
      for (const std::size_t n : {3u, 13u, 768u}) {
        Rng rng(++seed);
        const Matrix a = Matrix::random_uniform(m, k, rng, -1.0, 1.0);
        const Matrix b = Matrix::random_uniform(k, n, rng, -1.0, 2.0);
        GemmConfig cfg;
        cfg.dot.use_full_optics = true;
        cfg.dot.adc_readout = adc;
        cfg.array_rows = array_rows;
        cfg.array_cols = array_cols;
        cfg.path = quant ? ExecutionPath::kKernelQuant : ExecutionPath::kKernelSimd;
        cfg.guard.noise_sigma = calibrate_guard_sigma(cfg.dot, k);
        for (const bool guarded : {false, true}) {
          for (const std::size_t threads : {1u, 4u}) {
            cfg.guard.enabled = guarded;
            cfg.threads = threads;
            const PhotonicGemm gemm(*drv, cfg);
            PreparedOperand pb = gemm.prepare_b(b);
            if (quant) {
              pb.qcodes.row(n / 2)[k / 2] = static_cast<std::int16_t>(-100);
            } else {
              pb.encoded(n / 2, k / 2) = -0.75;
            }
            const std::string label = "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                                      " n=" + std::to_string(n) +
                                      " guarded=" + std::to_string(guarded) +
                                      " threads=" + std::to_string(threads);
            check(label, gemm, a, pb, gemm.multiply_prepared(a, pb));
          }
        }
      }
    }
  }
}

/// Outputs must agree across guard and thread settings and verdicts
/// across thread counts; the digests folded over every case must equal
/// `pin`, recorded from the per-tile form of the tier.
void expect_pinned(Tier tier, const Pin& pin) {
  Digest outputs;
  Digest guards;
  std::uint64_t out = 0;
  std::uint64_t verdicts = 0;
  for_each_case(tier, pin.array_rows, pin.array_cols, pin.adc,
                [&](const std::string& label, const PhotonicGemm& gemm, const Matrix&,
                    const PreparedOperand&, const GemmResult& r) {
                  const bool first = !gemm.config().guard.enabled && gemm.threads() == 1;
                  const std::uint64_t o = output_digest(r);
                  if (first) {
                    out = o;
                    outputs.u64(o);
                  }
                  EXPECT_EQ(o, out) << label;
                  if (!gemm.config().guard.enabled) return;
                  const std::uint64_t g = guard_digest(r.guard);
                  if (gemm.threads() == 1) {
                    verdicts = g;
                    guards.u64(g);
                  }
                  EXPECT_EQ(g, verdicts) << label;
                });
  // The SIMD pins are ADC configurations: they are AVX2+FMA bits, and
  // the ADC absorbs last-bit differences between compilers (see
  // per_tile_simd).  The integer tier's sums are exact, so its pins hold
  // on every ISA and build.
  if (tier == Tier::kSimd && std::string(simd::active_isa()) != "avx2+fma") {
    GTEST_SKIP() << "SIMD-tier pins are recorded for avx2+fma, this host runs "
                 << simd::active_isa();
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "{%zu, %zu, %s, 0x%016llxull, 0x%016llxull}",
                pin.array_rows, pin.array_cols, pin.adc ? "true" : "false",
                static_cast<unsigned long long>(outputs.h),
                static_cast<unsigned long long>(guards.h));
  EXPECT_EQ(outputs.h, pin.output) << "measured pin " << buf;
  EXPECT_EQ(guards.h, pin.guard) << "measured pin " << buf;
}

/// The SIMD tier in its per-tile form (full optics, no ADC), the oracle
/// for configurations without ADC.  Their raw bits hang on how the compiler schedules the
/// scalar tails of common/simd.cpp (GCC vectorizes and contracts them
/// differently at -O0, -O2 and -O3), so no recorded digest holds across
/// builds; this oracle calls the same primitives in the same build.
/// Per tile: Σx² and Σy² by dot_self, simd::dot4 blocks from the tile's
/// first column, simd::dot for its last w mod 4 columns, raw values
/// summed per tile row and column, then the checksum lanes exactly as
/// PhotonicGemm checks them.
GemmResult per_tile_simd(const PhotonicGemm& gemm, const Matrix& a, const PreparedOperand& pb) {
  const GemmConfig& cfg = gemm.config();
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = pb.cols;
  GemmResult res;
  res.a_scale = converters::max_abs_scale(a.data());
  res.b_scale = pb.scale;
  res.events = gemm.count_events(m, k, n);
  res.c = Matrix(m, n);
  Matrix norm(m, k);
  Matrix ae(m, k);
  for (std::size_t i = 0; i < a.size(); ++i) norm.data()[i] = a.data()[i] / res.a_scale;
  for (std::size_t i = 0; i < m; ++i) gemm.engine().encode_span(norm.row(i), ae.row(i));

  const FusedKernel kernel(gemm.engine());
  const LaneTransfer& ln = kernel.lane_table().front();
  const DetectorTransfer& det = kernel.detector();
  const std::size_t nl = kernel.active_wavelengths();
  const std::size_t chunks = (k + nl - 1) / nl;
  const double f2 = ln.ps_re * ln.ps_re + ln.ps_im * ln.ps_im;
  const double t2 = ln.t * ln.t;
  const double k2 = ln.jk_im * ln.jk_im;
  const double cxx = 0.5 * (det.gain_plus * t2 - det.gain_minus * k2);
  const double cyy = 0.5 * f2 * (det.gain_plus * k2 - det.gain_minus * t2);
  const double cxy = -ln.t * ln.jk_im * ln.ps_im * (det.gain_plus + det.gain_minus);
  const double dark = static_cast<double>(chunks) * (det.dark_plus - det.dark_minus);
  const double rescale = res.a_scale * res.b_scale;

  // dot_self is deterministic, so norms computed once equal per-tile ones.
  std::vector<double> sxx(m);
  std::vector<double> syy(n);
  for (std::size_t i = 0; i < m; ++i) sxx[i] = simd::dot_self(ae.row(i).data(), k);
  for (std::size_t j = 0; j < n; ++j) syy[j] = simd::dot_self(pb.encoded.row(j).data(), k);
  Matrix xsum((m + cfg.array_rows - 1) / cfg.array_rows, k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) xsum(i / cfg.array_rows, p) += ae(i, p);
  }
  res.guard.enabled = cfg.guard.enabled;
  const auto tiles = partition_tiles(m, n, cfg.array_rows, cfg.array_cols);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const Tile& tile = tiles[t];
    std::vector<double> rsum(tile.rows, 0.0);
    std::vector<double> csum(tile.cols, 0.0);
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
      const double* x = ae.row(i).data();
      std::vector<double> sxy(tile.cols);
      std::size_t jj = 0;
      for (; jj + 4 <= tile.cols; jj += 4) {
        const double* y[4];
        for (std::size_t b = 0; b < 4; ++b) y[b] = pb.encoded.row(tile.col0 + jj + b).data();
        simd::dot4(x, y, k, &sxy[jj]);
      }
      for (; jj < tile.cols; ++jj) sxy[jj] = simd::dot(x, pb.encoded.row(tile.col0 + jj).data(), k);
      for (jj = 0; jj < tile.cols; ++jj) {
        const double r = cxx * sxx[i] + cyy * syy[tile.col0 + jj] + cxy * sxy[jj] + dark;
        res.c(i, tile.col0 + jj) = r * rescale;
        rsum[i - tile.row0] += r;
        csum[jj] += r;
      }
    }
    if (!cfg.guard.enabled) continue;
    ++res.guard.tiles_checked;
    res.guard.checksum_events += checksum_lane_events(tile.rows, tile.cols, k, chunks);
    const double mag = static_cast<double>(k);
    bool ok = true;
    const auto note = [&](double residual, double tol) {
      if (residual > res.guard.worst_residual) {
        res.guard.worst_residual = residual;
        res.guard.worst_tolerance = tol;
      }
      if (residual > tol) ok = false;
    };
    const auto ysum = pb.checksum.row(tile.col0 / cfg.array_cols);
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
      double ref = 0.0;
      for (std::size_t p = 0; p < k; ++p) ref += ae(i, p) * ysum[p];
      note(std::abs(rsum[i - tile.row0] - ref), guard_tolerance(cfg.guard, k, tile.cols, mag));
    }
    const auto xs = xsum.row(tile.row0 / cfg.array_rows);
    for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
      const auto yr = pb.encoded.row(j);
      double ref = 0.0;
      for (std::size_t p = 0; p < k; ++p) ref += xs[p] * yr[p];
      note(std::abs(csum[j - tile.col0] - ref), guard_tolerance(cfg.guard, k, tile.rows, mag));
    }
    if (!ok && res.guard.mismatched_tiles++ == 0) res.guard.first_mismatch = t;
  }
  return res;
}

/// SIMD tier without ADC: every case equals the per-tile oracle bit for
/// bit — outputs, events and guard verdicts.
void expect_matches_per_tile_oracle(std::size_t array_rows, std::size_t array_cols) {
  GemmResult ref;  // the oracle does not depend on the thread count
  for_each_case(Tier::kSimd, array_rows, array_cols, false,
                [&](const std::string& label, const PhotonicGemm& gemm, const Matrix& a,
                    const PreparedOperand& pb, const GemmResult& r) {
                  if (gemm.threads() == 1) ref = per_tile_simd(gemm, a, pb);
                  EXPECT_EQ(output_digest(r), output_digest(ref)) << label;
                  EXPECT_EQ(guard_digest(r.guard), guard_digest(ref.guard)) << label;
                });
}

}  // namespace

TEST(KernelSimdProductPins, Array8x8Adc) {
  expect_pinned(Tier::kSimd, {8, 8, true, 0x055ebce499ca5825ull, 0xd319c2cb6bf82de9ull});
}
TEST(KernelSimdProductPins, Array8x8NoAdcMatchesPerTileOracle) {
  expect_matches_per_tile_oracle(8, 8);
}
TEST(KernelSimdProductPins, Array3x6Adc) {
  expect_pinned(Tier::kSimd, {3, 6, true, 0xa17c30ef94b70507ull, 0x8e98fe08137df77bull});
}
TEST(KernelSimdProductPins, Array1x1NoAdcMatchesPerTileOracle) {
  expect_matches_per_tile_oracle(1, 1);
}
TEST(KernelQuantProductPins, Array8x8Adc) {
  expect_pinned(Tier::kQuant, {8, 8, true, 0xd4a28b9d860749d4ull, 0xad2270359f07dd5cull});
}
TEST(KernelQuantProductPins, Array3x6NoAdc) {
  expect_pinned(Tier::kQuant, {3, 6, false, 0x6f390cf50d91ce0cull, 0x4558897c9ef25cb7ull});
}
TEST(KernelQuantProductPins, Array1x1Adc) {
  expect_pinned(Tier::kQuant, {1, 1, true, 0xd0e11225046ad58dull, 0x2c6f6b5d96cb8b28ull});
}
