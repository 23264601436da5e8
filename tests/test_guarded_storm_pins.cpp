// Pins for GuardedBackend's storm path: a product sequence of a cached
// weight product plus both KV axes (scores = a·Kᵀ appended as new output
// columns, context = p·V appended along the reduction axis), run under
// three fault storms that advance the injector's clock before every tile:
//
//   (a) discrete events (hard + drift-class) landing mid-product;
//   (b) a bias walk + laser droop, so the bank's epoch moves every tile;
//   (c) a storm plus transient upsets and a windowed re-trim budget that
//       together fire the retry, re-trim and fence rungs.
//
// The digests fold every output bit, events(), the HealthSnapshot
// counters, the DriftTracker snapshot and levels, the bank's fence/epoch
// state and the KV cache's append/rebuild counts.  They were recorded
// from the form that re-encoded every tile's operand slices through the
// live lanes; per-slice epoch stamps must reproduce them exactly.  The
// scalar tier is pinned because its bits do not depend on the build
// type; the SIMD tier is checked against itself (lane table on vs off).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/guarded_backend.hpp"

namespace {

using namespace pdac;

/// FNV-1a over exact bits.
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
  void matrix(const Matrix& m) {
    u64(m.rows());
    u64(m.cols());
    bytes(m.data().data(), m.size() * sizeof(double));
  }
  void events(const ptc::EventCounter& ev) {
    for (const std::uint64_t v : {ev.modulation_events, ev.detection_events, ev.adc_events,
                                  ev.ddot_ops, ev.macs, ev.cycles}) {
      u64(v);
    }
  }
};

struct StormSpec {
  faults::FaultScheduleConfig schedule{};
  faults::EscalationConfig escalation{};
  double drift_band{1.0};
  bool upsets{false};  ///< queue two same-tile dot upsets before every weight product
};

/// What one sequence produced, split so a failure names the part that moved.
struct Pins {
  std::uint64_t outputs{0};
  std::uint64_t events{0};
  std::uint64_t health{0};
  std::uint64_t drift{0};
  std::uint64_t bank{0};
  faults::HealthSnapshot snap;
  std::uint64_t epoch_moves{0};
  std::size_t tiles{0};
};

constexpr std::size_t kLanes = 8;  // 4 wavelengths × 2 rails
constexpr std::size_t kRows = 10;  // two row stripes on the 8×8 array, one ragged
constexpr std::size_t kDim = 20;   // three column stripes, one ragged
/// Weight-product reduction length: a full 8×8 tile's slices then need
/// (8 + 8)·136 element encodes, more than rebuilding the 8-lane table
/// (8 · 255), while the ragged tiles stay below it — both re-encode
/// routes run when the epoch moves every tile.
constexpr std::size_t kIn = 136;
constexpr std::size_t kRounds = 6;
constexpr std::size_t kContext0 = 9;

faults::LaneBankConfig bank_config() {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = kLanes / 2;
  cfg.variation.tia_gain_sigma = 0.01;
  cfg.variation.bias_sigma = 0.002;
  cfg.variation.vpi_drift_sigma = 0.005;
  cfg.variation.seed = 5;
  return cfg;
}

/// `t` Gaussian rows with the global max-abs pinned into row 0, so the
/// later prefixes stay within the resident operand's scale and append.
Matrix history(std::size_t t, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::random_gaussian(t, kDim, rng);
  double peak = 0.0;
  for (const double v : m.data()) peak = std::max(peak, std::abs(v));
  m(0, 0) = 2.0 * peak;
  return m;
}

Matrix prefix(const Matrix& m, std::size_t t) {
  Matrix p(t, m.cols());
  for (std::size_t r = 0; r < t; ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) p(r, c) = m(r, c);
  }
  return p;
}

Pins run_sequence(const StormSpec& spec, bool use_lane_table, ptc::ExecutionPath path,
                  std::size_t threads) {
  faults::LaneBank bank(bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.use_lane_table = use_lane_table;
  cfg.path = path;
  cfg.threads = threads;
  cfg.escalation = spec.escalation;
  cfg.guard.drift_band = spec.drift_band;
  faults::GuardedBackend backend(bank, cfg);
  faults::FaultScheduleConfig fc = spec.schedule;
  fc.lanes = bank.lanes();
  fc.bits = 8;
  faults::FaultInjector injector(bank, faults::generate_fault_schedule(fc));
  backend.attach_storm(&injector, 1);
  const std::uint64_t epoch0 = bank.epoch();

  Rng rng(77);
  const Matrix w = Matrix::random_gaussian(kIn, kDim, rng);
  const nn::WeightHandle weight{1, 1};
  const Matrix keys = history(kContext0 + kRounds, 91);
  const Matrix values = history(kContext0 + kRounds, 92);
  const nn::KvHandle scores{nn::next_kv_id(), nn::KvAxis::kCols};
  const nn::KvHandle context{nn::next_kv_id(), nn::KvAxis::kRows};

  Pins pins;
  Digest out;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t t = kContext0 + round;
    const Matrix x = Matrix::random_gaussian(kRows, kIn, rng);
    if (spec.upsets) {
      // Two glitches in one tile lack the single-error signature, so the
      // retry rung has to clear them.
      backend.inject_dot_upset({1, 2, 0.75});
      backend.inject_dot_upset({3, 5, -0.5});
    }
    const Matrix y = backend.matmul_cached(x, w, weight);
    const Matrix s = backend.matmul_kv(y, prefix(keys, t), scores);
    const Matrix p = Matrix::random_gaussian(kRows, t, rng);
    const Matrix z = backend.matmul_kv(p, prefix(values, t), context);
    out.matrix(y);
    out.matrix(s);
    out.matrix(z);
    pins.tiles += 2 * 3 + 2 * ((t + 7) / 8) + 2 * 3;
  }
  pins.outputs = out.h;

  Digest ev;
  ev.events(backend.events());
  pins.events = ev.h;

  const faults::HealthSnapshot snap = backend.monitor().snapshot();
  Digest health;
  for (const std::size_t v :
       {snap.products, snap.detections, snap.tiles_checked, snap.mismatched_tiles,
        snap.sec_corrections, snap.retries, snap.retrims, snap.fences, snap.unrecovered,
        snap.drift_tiles, snap.drift_products, snap.proactive_retrims, snap.governed_retrims,
        snap.probe_events, snap.detection_latency_tiles}) {
    health.u64(v);
  }
  health.f64(snap.worst_drift_ratio);
  health.f64(snap.worst_residual);
  health.f64(snap.worst_tolerance);
  health.events(snap.checksum_events);
  health.events(snap.retry_events);
  for (const std::size_t v : snap.lane_mismatches) health.u64(v);
  pins.health = health.h;
  pins.snap = snap;

  const faults::DriftSnapshot ds = backend.drift().snapshot();
  Digest drift;
  for (const std::size_t v : {ds.lanes, ds.clean, ds.drifting, ds.excursions,
                              ds.residual_samples, ds.probe_samples}) {
    drift.u64(v);
  }
  drift.f64(ds.worst_level);
  for (std::size_t l = 0; l < backend.drift().lanes(); ++l) drift.f64(backend.drift().level(l));
  pins.drift = drift.h;

  Digest bk;
  bk.u64(bank.epoch());
  for (std::size_t l = 0; l < bank.lanes(); ++l) bk.u64(bank.lane(l).fenced ? 1 : 0);
  const nn::KvPreparedCacheStats& kv = backend.kv_cache()->stats();
  for (const std::uint64_t v : {kv.hits, kv.misses, kv.appends, kv.rebuilds}) bk.u64(v);
  pins.bank = bk.h;
  pins.epoch_moves = bank.epoch() - epoch0;
  return pins;
}

StormSpec discrete_storm() {
  StormSpec s;
  s.schedule.horizon_steps = 120;
  s.schedule.hard_fault_rate = 0.25;
  s.schedule.drift_fault_rate = 0.5;
  s.schedule.seed = 4101;
  return s;
}

StormSpec walk_droop_storm() {
  StormSpec s;
  s.schedule.horizon_steps = 120;
  s.schedule.bias_walk_sigma_per_step = 2e-5;
  s.schedule.laser_droop_per_step = 1e-6;
  s.schedule.seed = 4102;
  s.drift_band = 14.0;
  return s;
}

StormSpec rung_storm() {
  StormSpec s;
  s.schedule.horizon_steps = 120;
  s.schedule.hard_fault_rate = 0.5;
  s.schedule.drift_fault_rate = 0.5;
  s.schedule.seed = 4103;
  // One re-trim per window: the first hard fault climbs retry → re-trim,
  // later ones find the re-trim governed and fall through to the fence.
  s.escalation.window_retrims = 1;
  s.escalation.window_products = 1000;
  s.upsets = true;
  return s;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Expected {
  std::uint64_t outputs, events, health, drift, bank;
};

void expect_pins(const Pins& got, const Expected& want) {
  EXPECT_EQ(hex(got.outputs), hex(want.outputs)) << "outputs";
  EXPECT_EQ(hex(got.events), hex(want.events)) << "events()";
  EXPECT_EQ(hex(got.health), hex(want.health)) << "HealthSnapshot";
  EXPECT_EQ(hex(got.drift), hex(want.drift)) << "DriftTracker";
  EXPECT_EQ(hex(got.bank), hex(want.bank)) << "bank + KV cache";
}

void expect_same(const Pins& a, const Pins& b) {
  EXPECT_EQ(hex(a.outputs), hex(b.outputs));
  EXPECT_EQ(hex(a.events), hex(b.events));
  EXPECT_EQ(hex(a.health), hex(b.health));
  EXPECT_EQ(hex(a.drift), hex(b.drift));
  EXPECT_EQ(hex(a.bank), hex(b.bank));
}

constexpr auto kScalar = ptc::ExecutionPath::kKernel;

TEST(GuardedBackendStormPins, DiscreteEventsMidProduct) {
  const Pins got = run_sequence(discrete_storm(), true, kScalar, 1);
  // The storm does what it is named for: faults land, the guard catches them.
  EXPECT_GT(got.snap.detections, 0u);
  EXPECT_GT(got.epoch_moves, 0u);
  EXPECT_LT(got.epoch_moves, got.tiles / 4);
  expect_pins(got, {0x5c1bf41cd548b45eull, 0x55ed7a9ab57c096bull, 0xcd1ff8ca503b4b30ull,
                    0x1b458aa497f8bb4aull, 0x7d0f42a4cc8500a8ull});
}

TEST(GuardedBackendStormPins, WalkAndDroopMoveTheEpochEveryTile) {
  const Pins got = run_sequence(walk_droop_storm(), true, kScalar, 1);
  EXPECT_GE(got.epoch_moves, got.tiles);
  expect_pins(got, {0x022c933913ffe7beull, 0x2a044449c0fb07d8ull, 0x4d65fde8edfaeceaull,
                    0xa68f74a857ef43e1ull, 0xe9ea5c5d0dfc953cull});
}

TEST(GuardedBackendStormPins, RetryRetrimAndFenceRungs) {
  const Pins got = run_sequence(rung_storm(), true, kScalar, 1);
  EXPECT_GT(got.snap.retries, 0u);
  EXPECT_GT(got.snap.retrims, 0u);
  EXPECT_GT(got.snap.fences, 0u);
  expect_pins(got, {0x2d411d3f1de6c57cull, 0x8de8a37fa4517ad2ull, 0xbe28a67cab4a05e5ull,
                    0x97f98a4cf585c725ull, 0x85596949a04bdf04ull});
}

TEST(GuardedBackendStormPins, LaneTableOffEqualsOnBitwise) {
  for (const StormSpec& spec : {discrete_storm(), walk_droop_storm(), rung_storm()}) {
    for (const ptc::ExecutionPath path : {kScalar, ptc::ExecutionPath::kKernelSimd}) {
      SCOPED_TRACE(static_cast<int>(path));
      const Pins on = run_sequence(spec, true, path, 1);
      expect_same(on, run_sequence(spec, false, path, 1));
      expect_same(on, run_sequence(spec, true, path, 3));
    }
  }
}

}  // namespace
