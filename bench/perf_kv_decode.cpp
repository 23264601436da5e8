// perf_kv_decode — incremental KV-prepared attention vs from-scratch
// prepare vs the unprepared baseline on long decode (DESIGN.md §17).
//
// Replays one multi-head attention decode stream to a long context on
// the full-optics + ADC configuration and measures ms/token at
// checkpoint lengths under three execution modes:
//   * incremental — forward_decode(kPrepared) over a PhotonicBackend
//     whose KV PreparedStore is enabled: the per-head K/V operands stay
//     resident and every step extends them in place
//     (ptc::OperandBuilder::append), O(1) prepare work per token;
//   * fresh — the same prepared route with the KV cache disabled, so
//     every step re-prepares the whole history from scratch (the O(t)
//     per-token cost the appends eliminate);
//   * unprepared — forward_decode(kUnprepared): plain backend.matmul
//     with a manually staged Kᵀ, the pre-§17 baseline.
// The trio runs on the scalar kernel and SIMD tiers (physical P-DAC
// driver) and the integer quant tier (bit-true DAC chain, its on-grid
// precondition), mirroring perf_kernel's tier ladder.
//
// The contract is exactness, so the bench GATES before it brags:
//   * per-token digests (FNV-1a over every output row) must match
//     across all three modes on every tier — bit-identity at EVERY
//     length, not just the last;
//   * cumulative EventCounter must match across modes field for field
//     (preparation removes simulator work, never modeled hardware work);
//   * the incremental run must append, never rebuild (the loud-first-
//     token stream keeps the running max-abs stable by construction);
//   * decode cosine: the SIMD tier's final context row vs the scalar
//     kernel's, and the quant tier's vs the scalar kernel on the same
//     bit-true chain, must stay >= 1 - 1e-6.
// In full mode the incremental path must additionally clear the >=2x
// ms/token bar vs the unprepared baseline at the longest context on
// every tier — the PR's acceptance criterion.
//
// Writes machine-readable BENCH_kv.json (default: repository root).
//
// Usage:
//   perf_kv_decode             # full shapes, 2x gate enforced
//   perf_kv_decode --smoke     # tiny shapes, identity gates only
//   perf_kv_decode --out FILE  # JSON destination
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "nn/attention.hpp"
#include "nn/backend.hpp"
#include "nn/prepared_store.hpp"
#include "ptc/gemm_engine.hpp"

#ifndef PDAC_REPO_ROOT
#define PDAC_REPO_ROOT "."
#endif

namespace {

using namespace pdac;

enum class Mode { kIncremental, kFresh, kUnprepared };

/// The hot-path configuration the tiers target: full optics + ADC.
ptc::GemmConfig hot_config(ptc::ExecutionPath path) {
  ptc::GemmConfig cfg;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.path = path;
  return cfg;
}

std::uint64_t fnv1a_row(const Matrix& m, std::uint64_t h) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(m.data().data());
  for (std::size_t i = 0; i < m.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool events_equal(const ptc::EventCounter& a, const ptc::EventCounter& b) {
  return a.modulation_events == b.modulation_events &&
         a.detection_events == b.detection_events && a.adc_events == b.adc_events &&
         a.ddot_ops == b.ddot_ops && a.macs == b.macs && a.cycles == b.cycles;
}

double cosine(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a.data()[i] * b.data()[i];
    na += a.data()[i] * a.data()[i];
    nb += b.data()[i] * b.data()[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

/// The decode stream: token 0 is a loud ±1 row and every later token is
/// quiet, so the per-head K/V running max-abs is set at step 0 and never
/// outgrown — the incremental mode's appends are never refused on scale
/// (a rebuild would be correct but is exactly the cost being measured).
Matrix decode_stream(std::size_t context, std::size_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(context, d_model);
  for (std::size_t c = 0; c < d_model; ++c) x(0, c) = c % 2 == 0 ? 1.0 : -1.0;
  for (std::size_t t = 1; t < context; ++t) {
    for (std::size_t c = 0; c < d_model; ++c) x(t, c) = 0.2 * rng.gaussian();
  }
  return x;
}

struct RunResult {
  std::vector<double> ms_per_token;  ///< per checkpoint: median of trailing window
  std::uint64_t digest{14695981039346656037ull};  ///< chained over every output row
  Matrix final_out;
  ptc::EventCounter events;  ///< cumulative over the whole stream
  nn::PreparedStoreStats kv;
};

/// Decode `x` row by row through one backend; time every step and report
/// the median of the last `window` steps before each checkpoint.
RunResult run_decode(nn::MultiHeadAttention& mha, nn::PhotonicBackend& backend, Mode mode,
                     const Matrix& x, const std::vector<std::size_t>& checkpoints) {
  const std::size_t window = 5;
  RunResult res;
  nn::AttentionKvState kv = mha.make_kv_state();
  const nn::KvDecodeMode dm =
      mode == Mode::kUnprepared ? nn::KvDecodeMode::kUnprepared : nn::KvDecodeMode::kPrepared;
  std::vector<double> step_ms(x.rows(), 0.0);
  Matrix xt(1, x.cols());
  for (std::size_t t = 0; t < x.rows(); ++t) {
    for (std::size_t c = 0; c < x.cols(); ++c) xt(0, c) = x(t, c);
    const auto t0 = std::chrono::steady_clock::now();
    res.final_out = mha.forward_decode(xt, backend, kv, dm);
    const auto t1 = std::chrono::steady_clock::now();
    step_ms[t] = std::chrono::duration<double, std::milli>(t1 - t0).count();
    res.digest = fnv1a_row(res.final_out, res.digest);
  }
  for (const std::size_t cp : checkpoints) {
    const std::size_t lo = cp > window ? cp - window : 0;
    std::vector<double> tail(step_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                             step_ms.begin() + static_cast<std::ptrdiff_t>(cp));
    std::sort(tail.begin(), tail.end());
    res.ms_per_token.push_back(tail[tail.size() / 2]);
  }
  res.events = backend.events();
  res.kv = backend.kv_cache()->stats();
  nn::MultiHeadAttention::release_kv_state(kv, backend);
  return res;
}

struct TierSpec {
  const char* name;
  ptc::ExecutionPath path;
  bool bit_true;
};

constexpr TierSpec kTierSpecs[] = {
    {"kernel", ptc::ExecutionPath::kKernel, false},
    {"kernel_simd", ptc::ExecutionPath::kKernelSimd, false},
    {"kernel_quant", ptc::ExecutionPath::kKernelQuant, true},
};

std::unique_ptr<nn::PhotonicBackend> make_backend(const TierSpec& tier, bool kv_enabled) {
  auto drv = tier.bit_true ? core::make_bit_true_driver(8) : core::make_pdac_driver(8);
  nn::PreparedStoreConfig cache_cfg;
  cache_cfg.capacity_bytes = 1ull << 30;
  nn::PreparedStoreConfig kv_cfg;
  kv_cfg.capacity_bytes = 1ull << 30;
  kv_cfg.enabled = kv_enabled;
  return std::make_unique<nn::PhotonicBackend>(std::move(drv), hot_config(tier.path),
                                               cache_cfg, kv_cfg);
}

struct TierResult {
  RunResult inc, fresh, unprep;
  bool bit_identical{false};
  bool events_ok{false};
  bool appends_ok{false};
  double cosine_vs_scalar{0.0};
  double speedup_vs_unprepared{0.0};  ///< at the longest checkpoint
  double speedup_vs_fresh{0.0};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pdac;

  bool smoke = false;
  std::string out_path = std::string(PDAC_REPO_ROOT) + "/BENCH_kv.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  const std::size_t d_model = smoke ? 32 : 128;
  const std::size_t heads = smoke ? 2 : 4;
  const std::vector<std::size_t> checkpoints =
      smoke ? std::vector<std::size_t>{8, 24} : std::vector<std::size_t>{64, 256, 1024};
  const std::size_t context = checkpoints.back();

  std::printf("perf_kv_decode — incremental KV-prepared attention, %s mode\n",
              smoke ? "smoke" : "full");
  std::printf("model: d_model=%zu heads=%zu context=%zu (full optics + ADC, threads=1)\n\n",
              d_model, heads, context);

  nn::MultiHeadAttention mha(d_model, heads);
  Rng wrng(42);
  mha.init_random(wrng);
  const Matrix x = decode_stream(context, d_model, 7);

  // Scalar-kernel reference on the bit-true chain, for the quant tier's
  // decode-cosine gate (same driver, different arithmetic tier).
  Matrix bt_scalar_final;
  {
    const TierSpec bt{"kernel", ptc::ExecutionPath::kKernel, true};
    auto backend = make_backend(bt, true);
    bt_scalar_final =
        run_decode(mha, *backend, Mode::kIncremental, x, checkpoints).final_out;
  }

  std::vector<TierResult> results;
  Matrix scalar_final;
  for (const TierSpec& tier : kTierSpecs) {
    TierResult r;
    {
      auto backend = make_backend(tier, true);
      r.inc = run_decode(mha, *backend, Mode::kIncremental, x, checkpoints);
    }
    {
      auto backend = make_backend(tier, false);
      r.fresh = run_decode(mha, *backend, Mode::kFresh, x, checkpoints);
    }
    {
      auto backend = make_backend(tier, true);
      r.unprep = run_decode(mha, *backend, Mode::kUnprepared, x, checkpoints);
    }
    r.bit_identical = r.inc.digest == r.unprep.digest && r.inc.digest == r.fresh.digest;
    r.events_ok = events_equal(r.inc.events, r.unprep.events) &&
                  events_equal(r.inc.events, r.fresh.events);
    // 2 handles/head, each: 1 miss then context-1 append-hits, 0 rebuilds.
    r.appends_ok = r.inc.kv.rebuilds == 0 && r.inc.kv.appends == 2 * heads * (context - 1);
    if (tier.path == ptc::ExecutionPath::kKernel) scalar_final = r.inc.final_out;
    r.cosine_vs_scalar = tier.bit_true ? cosine(r.inc.final_out, bt_scalar_final)
                                       : cosine(r.inc.final_out, scalar_final);
    const double inc_ms = r.inc.ms_per_token.back();
    r.speedup_vs_unprepared = inc_ms > 0.0 ? r.unprep.ms_per_token.back() / inc_ms : 0.0;
    r.speedup_vs_fresh = inc_ms > 0.0 ? r.fresh.ms_per_token.back() / inc_ms : 0.0;
    results.push_back(r);

    std::printf("[%s]%s\n", tier.name, tier.bit_true ? " (bit-true chain)" : "");
    for (std::size_t c = 0; c < checkpoints.size(); ++c) {
      std::printf("  ctx %4zu: incremental %8.3f ms/tok   fresh %8.3f   unprepared %8.3f\n",
                  checkpoints[c], r.inc.ms_per_token[c], r.fresh.ms_per_token[c],
                  r.unprep.ms_per_token[c]);
    }
    std::printf("  speedup @%zu: %.2fx vs unprepared, %.2fx vs fresh-prepare\n",
                context, r.speedup_vs_unprepared, r.speedup_vs_fresh);
    std::printf("  bit-identical: %s  events equal: %s  appends clean: %s  cosine: %.9f\n\n",
                r.bit_identical ? "yes" : "NO", r.events_ok ? "yes" : "NO",
                r.appends_ok ? "yes" : "NO", r.cosine_vs_scalar);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"kv_decode\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  std::fprintf(f, "  \"model\": {\"d_model\": %zu, \"heads\": %zu, \"context\": %zu},\n",
               d_model, heads, context);
  std::fprintf(f, "  \"contexts\": [");
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    std::fprintf(f, "%s%zu", c > 0 ? ", " : "", checkpoints[c]);
  }
  std::fprintf(f, "],\n  \"tiers\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TierSpec& tier = kTierSpecs[i];
    const TierResult& r = results[i];
    std::fprintf(f, "    {\"path\": \"%s\", \"driver\": \"%s\",\n", tier.name,
                 tier.bit_true ? "bit-true-dac" : "pdac");
    auto emit_series = [&](const char* key, const std::vector<double>& v, const char* tail) {
      std::fprintf(f, "     \"%s\": [", key);
      for (std::size_t c = 0; c < v.size(); ++c) {
        std::fprintf(f, "%s%.3f", c > 0 ? ", " : "", v[c]);
      }
      std::fprintf(f, "]%s\n", tail);
    };
    emit_series("incremental_ms_per_token", r.inc.ms_per_token, ",");
    emit_series("fresh_ms_per_token", r.fresh.ms_per_token, ",");
    emit_series("unprepared_ms_per_token", r.unprep.ms_per_token, ",");
    std::fprintf(f, "     \"speedup_vs_unprepared\": %.3f, \"speedup_vs_fresh\": %.3f,\n",
                 r.speedup_vs_unprepared, r.speedup_vs_fresh);
    std::fprintf(f, "     \"bit_identical\": %s, \"events_equal\": %s,\n",
                 r.bit_identical ? "true" : "false", r.events_ok ? "true" : "false");
    std::fprintf(f, "     \"kv_appends\": %llu, \"kv_rebuilds\": %llu,\n",
                 static_cast<unsigned long long>(r.inc.kv.appends),
                 static_cast<unsigned long long>(r.inc.kv.rebuilds));
    std::fprintf(f, "     \"decode_cosine\": %.12f}%s\n", r.cosine_vs_scalar,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"isa\": \"%s\"\n}\n", simd::active_isa());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TierResult& r = results[i];
    if (!r.bit_identical || !r.events_ok || !r.appends_ok) {
      std::fprintf(stderr, "FAIL: %s broke the identity contract (bits=%d events=%d appends=%d)\n",
                   kTierSpecs[i].name, r.bit_identical ? 1 : 0, r.events_ok ? 1 : 0,
                   r.appends_ok ? 1 : 0);
      ok = false;
    }
    if (r.cosine_vs_scalar < 1.0 - 1e-6) {
      std::fprintf(stderr, "FAIL: %s decode cosine %.12f below 1 - 1e-6\n", kTierSpecs[i].name,
                   r.cosine_vs_scalar);
      ok = false;
    }
    // >=2x at the longest context is the acceptance bar; smoke shapes
    // are too short for the prepare cost to dominate and gate identity only.
    if (!smoke && r.speedup_vs_unprepared < 2.0) {
      std::fprintf(stderr, "FAIL: %s incremental speedup %.2fx below the 2x bar\n",
                   kTierSpecs[i].name, r.speedup_vs_unprepared);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
