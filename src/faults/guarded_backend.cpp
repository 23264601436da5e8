#include "faults/guarded_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/math_utils.hpp"
#include "common/require.hpp"
#include "common/simd.hpp"

namespace pdac::faults {

ptc::ExecutionPath auto_execution_path(const LaneBank& bank) {
  LaneEncodeTable table;
  table.ensure(bank);
  if (table.quant_available()) return ptc::ExecutionPath::kKernelQuant;
  if (simd::has_fast_path()) return ptc::ExecutionPath::kKernelSimd;
  return ptc::ExecutionPath::kKernel;
}

GuardedBackend::GuardedBackend(LaneBank& bank, GuardedBackendConfig cfg,
                               HealthMonitor* shared_monitor)
    : bank_(bank),
      cfg_(cfg),
      pool_(std::make_unique<ThreadPool>(cfg.threads)),
      cache_(cfg.cache),
      kv_cache_(cfg.kv_cache),
      policy_(cfg.escalation),
      tracker_(cfg.drift) {
  PDAC_REQUIRE(cfg_.array_rows >= 1 && cfg_.array_cols >= 1,
               "GuardedBackend: array dimensions must be positive");
  if (shared_monitor != nullptr) monitor_ = shared_monitor;
  tracker_.resize(bank_.lanes());
  recalibrate();  // construction is a trusted calibration point
}

void GuardedBackend::recalibrate() {
  // One evaluation of the lanes' transfer tables serves both views: the
  // current-state table, and golden as its copy.  Rebuilt even when the
  // epoch says fresh — a trusted point must read the lanes as they are.
  table_.rebuild(bank_);
  golden_ = table_.amplitudes();
  // Golden re-snapshot is a trusted point: residuals now measure
  // divergence from the NEW state, so the accumulated drift levels are
  // repaid — carrying them forward would re-trigger the proactive rung
  // against evidence the re-trim just erased.
  tracker_.reset();
}

void GuardedBackend::roll_retrim_window() {
  const EscalationConfig& e = cfg_.escalation;
  if (e.window_products == 0) return;
  if (products_run_ - window_start_product_ >= e.window_products) {
    // Advance by whole window lengths: the budget refills exactly at the
    // boundary multiple, however long the backend idled past it.
    window_start_product_ +=
        ((products_run_ - window_start_product_) / e.window_products) * e.window_products;
    window_retrims_spent_ = 0;
  }
}

bool GuardedBackend::retrim_allowed() const {
  const EscalationConfig& e = cfg_.escalation;
  return e.window_products == 0 || window_retrims_spent_ < e.window_retrims;
}

void GuardedBackend::note_retrim() {
  ++window_retrims_spent_;
  last_retrim_product_ = products_run_;
  retrimmed_ever_ = true;
}

void GuardedBackend::observe_probes(const SelfTestReport& report) {
  const double budget = policy_.config().self_test.error_budget;
  if (budget <= 0.0) return;
  for (const LaneOutcome& lane : report.lanes) {
    // Already-fenced lanes are reported dead without being screened:
    // no measurement, no sample.
    if (lane.verdict == LaneVerdict::kDead && !lane.retrimmed &&
        lane.screen_error_before == 0.0) {
      continue;
    }
    // Over-budget excess: a healthy lane's intrinsic encoder error sits
    // near (below) the budget by construction, so it reads ~0 here.
    tracker_.observe_probe(lane.lane, std::max(0.0, lane.screen_error_after / budget - 1.0));
  }
}

void GuardedBackend::maybe_proactive_retrim() {
  const EscalationConfig& e = cfg_.escalation;
  if (!e.proactive_retrim || e.max_retrims == 0) return;  // serving clamp gates this too
  if (!tracker_.any_excursion()) return;
  if (bank_.usable_channels() == 0) return;
  if (e.retrim_cooldown_products > 0 && retrimmed_ever_ &&
      products_run_ - last_retrim_product_ < e.retrim_cooldown_products) {
    // Hysteresis dwell: keep absorbing and watching; re-check next
    // product.  Deliberately not counted as governed — the dwell is the
    // policy working, not the budget refusing.
    return;
  }
  if (!retrim_allowed()) {
    monitor_->record_governed_retrim();
    return;
  }
  const SelfTestReport report =
      run_self_test(bank_, implicated_lanes(bank_.surviving_channels()), e.self_test);
  monitor_->record_self_test(report);
  monitor_->record_action(GuardAction::kRetrim);
  monitor_->record_proactive_retrim();
  observe_probes(report);
  note_retrim();
  recalibrate();  // post-self-test lane state is trusted
}

void GuardedBackend::product_entry() {
  ++products_run_;
  roll_retrim_window();
  maybe_proactive_retrim();
}

void GuardedBackend::force_retrim() {
  const SelfTestReport report =
      run_self_test(bank_, implicated_lanes(bank_.surviving_channels()), policy_.config().self_test);
  monitor_->record_self_test(report);
  monitor_->record_action(GuardAction::kRetrim);
  observe_probes(report);
  note_retrim();
  recalibrate();
}

void GuardedBackend::attach_storm(FaultInjector* injector, std::uint64_t steps_per_tile) {
  storm_ = injector;
  storm_steps_per_tile_ = injector != nullptr ? steps_per_tile : 0;
  storm_clock_ = injector != nullptr ? injector->step() : 0;
}

std::int32_t GuardedBackend::quantize(double r) const {
  return bank_.quantizer().encode(math::clamp_unit(r));
}

double GuardedBackend::current_at(std::size_t rail, std::size_t channel,
                                  std::int32_t code) const {
  // Falls back to the live model whenever the table is stale (the epoch
  // moved and ensure() has not run yet), so a missed ensure() can cost
  // speed but never correctness.
  if (cfg_.use_lane_table && table_.fresh(bank_)) return table_.amplitude(rail, channel, code);
  return bank_.lane(rail, channel).model.encode_code(code);
}

bool GuardedBackend::quant_live() const {
  return cfg_.path == ptc::ExecutionPath::kKernelQuant && cfg_.use_lane_table &&
         table_.fresh(bank_) && table_.quant_available();
}

std::vector<std::size_t> GuardedBackend::implicated_lanes(
    const std::vector<std::size_t>& channels) const {
  // Both rails of every channel the packing uses: a reduction element on
  // channel ch touches the x-rail lane (A side) and the y-rail lane (B
  // side), and the guard cannot tell the rails apart from one residual.
  std::vector<std::size_t> lanes;
  lanes.reserve(channels.size() * LaneBank::kRails);
  for (std::size_t rail = 0; rail < LaneBank::kRails; ++rail) {
    for (const std::size_t ch : channels) lanes.push_back(rail * bank_.wavelengths() + ch);
  }
  return lanes;
}

ptc::OperandBuilder GuardedBackend::builder(std::vector<std::size_t> channels,
                                            std::size_t rail) const {
  const bool guarded = cfg_.guard.enabled;
  const bool quant = quant_live();
  // A's checksum stripes are array_rows high; B's array_cols wide, and
  // skipped in column-only mode (no row lanes read them).
  const std::size_t stripe =
      rail == 0 ? cfg_.array_rows : (cfg_.guard.column_only ? 0 : cfg_.array_cols);
  ptc::OperandLayout layout{bank_.epoch(), std::move(channels), guarded, quant,
                            guarded ? stripe : 0};
  return ptc::OperandBuilder(
      std::move(layout),
      [this, rail, guarded, quant](const ptc::EncodeSpan& s) {
        // Quantize once, then read the CURRENT-state amplitude, the
        // GOLDEN one and, while the quant tier is live, the lane table's
        // int16 grid code.
        for (std::size_t i = 0; i < s.norm.size(); ++i) {
          const std::size_t channel = s.channels[(s.p0 + i) % s.channels.size()];
          const std::int32_t code = quantize(s.norm[i]);
          s.encoded[i] = current_at(rail, channel, code);
          if (guarded) s.reference[i] = golden_[table_.index(rail, channel, code)];
          if (quant) s.qcodes[i] = table_.grid_code(rail, channel, code);
        }
      },
      *pool_, rail == 0 ? a_staging_ : staging_);
}

Matrix GuardedBackend::matmul(const Matrix& a, const Matrix& b) {
  PDAC_REQUIRE(a.cols() == b.rows(), "GuardedBackend: inner dimensions must agree");
  if (bank_.usable_channels() == 0) return Matrix(a.rows(), b.cols());
  product_entry();  // may re-trim (and bump the epoch) before the prepare
  if (cfg_.use_lane_table) table_.ensure(bank_);
  auto pb = std::make_shared<const ptc::PreparedOperand>(
      builder(bank_.surviving_channels(), 1).prepare(b, ptc::SourceForm::kB));
  return run_guarded(a, b, ptc::SourceForm::kB, std::move(pb), nullptr);
}

Matrix GuardedBackend::matmul_cached(const Matrix& a, const Matrix& b,
                                     const nn::WeightHandle& weight) {
  PDAC_REQUIRE(a.cols() == b.rows(), "GuardedBackend: inner dimensions must agree");
  if (bank_.usable_channels() == 0) return Matrix(a.rows(), b.cols());
  product_entry();
  if (cfg_.use_lane_table) table_.ensure(bank_);
  const std::vector<std::size_t> channels = bank_.surviving_channels();
  auto pb = cache_.obtain(weight, bank_.epoch(), channels, [&] {
    return builder(channels, 1).prepare(b, ptc::SourceForm::kB);
  });
  return run_guarded(a, b, ptc::SourceForm::kB, std::move(pb), &weight);
}

Matrix GuardedBackend::matmul_kv(const Matrix& a, const Matrix& kv,
                                 const nn::KvHandle& handle) {
  const ptc::SourceForm form = nn::source_form(handle.axis);
  const bool bt = form == ptc::SourceForm::kBt;  // the scores history IS Bᵀ — no copy
  PDAC_REQUIRE(a.cols() == (bt ? kv.cols() : kv.rows()),
               "GuardedBackend: inner dimensions must agree");
  if (bank_.usable_channels() == 0) return Matrix(a.rows(), bt ? kv.rows() : kv.cols());
  product_entry();
  if (cfg_.use_lane_table) table_.ensure(bank_);
  const ptc::OperandBuilder b = builder(bank_.surviving_channels(), 1);
  auto pb = kv_cache_.extend(
      handle.id, [&](ptc::PreparedOperand& op) { return b.append(op, kv, form); },
      [&] { return b.prepare(kv, form); });
  return run_guarded(a, kv, form, std::move(pb), nullptr, &handle);
}

ptc::TileCheck GuardedBackend::run_tile(const ptc::Tile& tile, const ptc::PreparedOperand& pa,
                                        const Matrix& bdata, const ptc::PreparedOperand& pb,
                                        double rescale, Matrix& c, double* sums,
                                        const std::vector<DotUpset>* upsets,
                                        const CodeMatrix* qae) const {
  const std::size_t k = pa.rows;
  const Matrix& ae = pa.encoded;
  // Numeric tier for the data dots (cfg_.path).  The integer tier needs
  // the staged codes on BOTH sides and the prepared (not live-re-encoded)
  // B data — the caller certifies that by passing `qae`; `&bdata ==
  // &pb.encoded` re-checks the B side.  Checksum references stay
  // double-precision golden dots, whatever the data tier.
  // `>= k` + physical-shape mirror rather than `== k`: rows-axis KV
  // appends pad the column capacity, and the dots below take k
  // explicitly, so the padded tail is never read.
  const bool quant_tile = qae != nullptr && pb.qcodes.cols() >= k &&
                          pb.qcodes.cols() == pb.encoded.cols() &&
                          pb.qcodes.rows() == pb.encoded.rows() && &bdata == &pb.encoded;
  const bool simd_tile = !quant_tile && cfg_.path != ptc::ExecutionPath::kKernel;
  const std::int32_t mc = bank_.quantizer().max_code();
  const double mc2 = static_cast<double>(mc) * static_cast<double>(mc);
  double* const rsum = sums;
  double* const csum = sums + cfg_.array_rows;
  std::fill(rsum, rsum + tile.rows, 0.0);
  std::fill(csum, csum + tile.cols, 0.0);
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    const auto x = ae.row(i);
    for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
      const auto y = bdata.row(j);
      // Ascending p matches the serial chunk order, so accumulation is
      // bit-identical across thread counts and to a post-fence re-run.
      // The fast tiers reassociate (SIMD) or round exactly once (quant:
      // Σ codes / max_code², exact int64 sum) — both inside the guard
      // band the verdicts are judged by.
      double acc = 0.0;
      if (quant_tile) {
        acc = static_cast<double>(
                  simd::dot_i16(qae->row(i).data(), pb.qcodes.row(j).data(), k, mc)) /
              mc2;
      } else if (simd_tile) {
        acc = simd::dot(x.data(), y.data(), k);
      } else {
        for (std::size_t p = 0; p < k; ++p) acc += x[p] * y[p];
      }
      if (upsets != nullptr) {
        // Transient detector glitches land on the raw accumulator, so
        // the checksum lanes see the corrupted value too.
        for (const DotUpset& u : *upsets) {
          if (u.row == i && u.col == j) acc += u.delta;
        }
      }
      c(i, j) = acc * rescale;
      rsum[i - tile.row0] += acc;
      csum[j - tile.col0] += acc;
    }
  }
  if (!cfg_.guard.enabled) return {};
  return ptc::check_tile(cfg_.guard, tile, k, pa, pb, rsum, csum, rescale, c);
}

std::size_t GuardedBackend::fence_diverged_lanes(const std::vector<std::size_t>& channels) {
  // Full calibration-table readback against the golden snapshot: the
  // escalation endpoint can afford to probe every code, which makes the
  // fence decision exact — a lane is fenced iff its transfer diverged
  // from the state the references were calibrated under.
  const std::int32_t max_code = bank_.quantizer().max_code();
  const std::size_t codes = static_cast<std::size_t>(max_code) * 2 + 1;
  std::size_t fenced = 0;
  std::size_t probes = 0;
  for (const std::size_t flat : implicated_lanes(channels)) {
    Lane& lane = bank_.lane(flat);
    if (lane.fenced) continue;
    bool diverged = false;
    for (std::size_t ci = 0; ci < codes; ++ci) {
      const auto code = static_cast<std::int32_t>(static_cast<std::int64_t>(ci) - max_code);
      const double out = lane.model.encode_code(code);
      ++probes;
      if (!(out == golden_[flat * codes + ci])) {  // NaN-safe inequality
        diverged = true;
        break;
      }
    }
    if (diverged) {
      lane.fenced = true;
      ++fenced;
      monitor_->record_implicated_lane(flat);
    }
  }
  monitor_->record_probe_events(probes);
  if (fenced > 0) bank_.bump_epoch();
  return fenced;
}

Matrix GuardedBackend::run_guarded(const Matrix& a, const Matrix& b_src, ptc::SourceForm form,
                                   std::shared_ptr<const ptc::PreparedOperand> pb,
                                   const nn::WeightHandle* weight,
                                   const nn::KvHandle* kv) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = pb->cols;
  const bool guarded = cfg_.guard.enabled;

  // A-side pipeline: a Bᵀ-form prepare of A through the x-rail lanes
  // under the operand's packing, into backend-owned scratch — current +
  // golden encodes and row-stripe checksums when guarded, int16 codes
  // while the quant tier is live.  Its own staging keeps the normalized
  // rows for storm re-encodes: a ladder re-prepare of B cannot overwrite
  // them.
  ptc::PreparedOperand& pa = a_op_;
  // Encode stamps: the bank epoch each A row's and each B column's
  // CURRENT-state encoding was made at.  Every lane mutator bumps the
  // epoch (lane_bank.hpp), so a slice stamped with the current epoch
  // already holds the bits a re-encode would produce.
  std::vector<std::uint64_t> a_epoch(m);
  std::vector<std::uint64_t> b_epoch(n);
  const auto prepare_a = [&] {
    builder(pb->channels, 0).prepare(a, ptc::SourceForm::kBt, pa);
    std::fill(a_epoch.begin(), a_epoch.end(), pa.epoch);
  };
  prepare_a();

  Matrix c(m, n);
  const double rescale = pa.scale * pb->scale;
  const std::vector<ptc::Tile> tiles =
      ptc::partition_tiles(m, n, cfg_.array_rows, cfg_.array_cols);
  std::vector<ptc::TileCheck> checks(tiles.size());

  // Data-side B encodings: the cached/prepared matrix (encoded at
  // pb->epoch) on the fast path; a live copy is materialized only when a
  // storm or a retry finds a stale column.  Reset whenever a rung
  // re-prepares the operand.
  const Matrix* bdata = nullptr;
  Matrix be_live;
  Matrix bn;  // normalized B, lazily built for live re-encodes
  const auto restart_b = [&] {
    bdata = &pb->encoded;
    be_live = Matrix();
    bn = Matrix();
    std::fill(b_epoch.begin(), b_epoch.end(), pb->epoch);
  };
  restart_b();

  // Bring one tile's operand slices to the bank's current epoch,
  // re-encoding only the rows and columns stamped with an older one.  The
  // stale slices take the lane table when rebuilding it costs no more
  // element encodes than they need, the live models otherwise — the same
  // bits either way, so this is a cost choice: a storm that moves the
  // epoch every tile must not pay a table rebuild per small tile.
  const std::size_t table_cost =
      bank_.lanes() * (2 * static_cast<std::size_t>(bank_.quantizer().max_code()) + 1);
  const auto refresh_tile = [&](const ptc::Tile& tile) {
    const std::uint64_t now = bank_.epoch();
    std::size_t stale = 0;
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) stale += a_epoch[i] != now;
    for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) stale += b_epoch[j] != now;
    if (stale == 0) return;
    if (cfg_.use_lane_table && stale * k >= table_cost) table_.ensure(bank_);
    const std::vector<std::size_t>& channels = pb->channels;
    const std::size_t nl = channels.size();
    const auto encode_row = [&](std::size_t rail, std::span<const double> src,
                                std::span<double> dst) {
      for (std::size_t p = 0; p < k; ++p) {
        dst[p] = current_at(rail, channels[p % nl], quantize(src[p]));
      }
    };
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
      if (a_epoch[i] == now) continue;
      encode_row(0, a_staging_.row(i), pa.encoded.row(i));
      a_epoch[i] = now;
    }
    for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
      if (b_epoch[j] == now) continue;
      if (be_live.size() == 0) {
        ptc::stage_normalized_bt(b_src, form, 0, pb->scale, bn);
        be_live = pb->encoded;
        bdata = &be_live;
      }
      encode_row(1, bn.row(j), be_live.row(j));
      b_epoch[j] = now;
    }
  };

  // Per-worker row/column sum scratch for run_tile, sized once per product.
  const std::size_t sums_stride = cfg_.array_rows + cfg_.array_cols;
  std::vector<double> tile_sums(pool_->size() * sums_stride);

  // Transient upsets strike the initial pass only — a retry (or the SEC
  // correction that obviates it) sees clean hardware.
  const std::vector<DotUpset> upsets = std::move(pending_upsets_);
  pending_upsets_.clear();
  const std::vector<DotUpset>* initial_upsets = upsets.empty() ? nullptr : &upsets;

  // ---- initial pass -------------------------------------------------
  const bool storm = storm_ != nullptr && storm_steps_per_tile_ > 0;
  if (storm) {
    // Serialized tile timeline: the injector's clock advances before
    // every tile step, then the step's operand slices are brought to the
    // lanes' current state, so a fault landing between tiles corrupts
    // exactly the tiles after it.  The hardware modulates every tile
    // step (tile_events charges it); the host re-encodes only the slices
    // whose stamp predates the epoch — recomputing the others would
    // reproduce the doubles they already hold.
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      storm_clock_ += storm_steps_per_tile_;
      storm_->advance_to(storm_clock_);
      refresh_tile(tiles[t]);
      checks[t] =
          run_tile(tiles[t], pa, *bdata, *pb, rescale, c, tile_sums.data(), initial_upsets);
    }
  } else {
    const Matrix& bd = *bdata;
    // The staged codes ride along iff the quant tier certified this
    // product (prepare_a staged them); run_tile re-checks per tile.
    const CodeMatrix* qa = pa.qcodes.rows() == m ? &pa.qcodes : nullptr;
    ptc::for_each_tile(*pool_, tiles, [&](std::size_t t, std::size_t worker) {
      checks[t] = run_tile(tiles[t], pa, bd, *pb, rescale, c,
                           tile_sums.data() + worker * sums_stride, initial_upsets, qa);
    });
  }
  ptc::GuardOutcome outcome;
  outcome.enabled = true;
  outcome.tiles_checked = tiles.size();
  {
    const std::size_t nl = pb->channels.size();
    const std::size_t chunks = (k + nl - 1) / nl;
    for (const ptc::Tile& tile : tiles) {
      events_ += ptc::tile_events(tile, k, nl);
      outcome.checksum_events += ptc::checksum_lane_events(tile.rows, tile.cols, k, chunks,
                                                           cfg_.guard.column_only);
    }
  }
  // With the guard off nothing is judged, fed or recorded.
  if (!guarded) return c;

  ptc::fold_checks(checks, outcome);
  std::vector<std::size_t> bad;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (!checks[t].ok) bad.push_back(t);
  }

  // Drift-evidence feed: one graded sample per product — the worst
  // residual/tolerance ratio of the initial pass — attributed to every
  // lane the packing used (one residual cannot name the lane).  Clean
  // products feed ratios ≪ 1 and decay the EWMA; in-band drift feeds
  // (1, band]; excursions feed capped large ratios.
  {
    double ratio = 0.0;
    for (const ptc::TileCheck& check : checks) {
      if (std::isnan(check.worst_residual)) {
        ratio = std::numeric_limits<double>::quiet_NaN();
        break;
      }
      if (check.tolerance > 0.0) ratio = std::max(ratio, check.worst_residual / check.tolerance);
    }
    tracker_.observe_residual(implicated_lanes(pb->channels), ratio);
  }

  // ---- escalation ladder -------------------------------------------
  EscalationState state;
  while (!bad.empty()) {
    // The windowed governor can veto the re-trim rung: the ladder then
    // degrades past it (retry → fence) instead of stalling, and the veto
    // is visible as a governed re-trim.
    const bool retrim_ok = retrim_allowed();
    const GuardAction action = policy_.next(state, retrim_ok);
    if (!retrim_ok && policy_.next(state, true) == GuardAction::kRetrim) {
      monitor_->record_governed_retrim();
    }
    monitor_->record_action(action);
    if (action == GuardAction::kGiveUp) break;

    bool repacked = false;
    switch (action) {
      case GuardAction::kRetry:
        ++state.retries;
        break;
      case GuardAction::kRetrim: {
        ++state.retrims;
        const SelfTestReport report =
            run_self_test(bank_, implicated_lanes(pb->channels), policy_.config().self_test);
        monitor_->record_self_test(report);
        observe_probes(report);
        note_retrim();
        recalibrate();  // post-self-test lane state is trusted
        repacked = true;
        break;
      }
      case GuardAction::kFence: {
        ++state.fences;
        fence_diverged_lanes(pb->channels);
        repacked = true;
        break;
      }
      default:
        break;
    }

    if (repacked) {
      std::vector<std::size_t> channels = bank_.surviving_channels();
      if (channels.empty()) {
        // Every channel fenced mid-recovery: the accelerator is offline.
        // Zero result: the same outage contract as a product entered
        // with every channel fenced.
        monitor_->record_action(GuardAction::kGiveUp);
        ptc::tally_drift(checks, outcome);
        monitor_->record_product(outcome);
        return Matrix(m, n);
      }
      // Re-prepare against the repaired/repacked bank: fresh current +
      // golden encodings and checksum stripes; refresh the cache so the
      // next product starts warm again.  The rung moved the epoch, so
      // re-ensure the coefficient table first (we are between parallel
      // regions here).
      if (cfg_.use_lane_table) table_.ensure(bank_);
      auto rebuilt = std::make_shared<ptc::PreparedOperand>(
          builder(std::move(channels), 1).prepare(b_src, form));
      if (weight != nullptr) cache_.insert(weight->id, weight->version, rebuilt);
      if (kv != nullptr) {
        // The resident KV entry described the pre-escalation bank; the
        // next decode step appends onto this rebuilt one instead.
        kv_cache_.insert(kv->id, rebuilt);
        kv_cache_.record_rebuild();
      }
      pb = rebuilt;
      prepare_a();
      restart_b();
    }

    // Re-run the mismatching tiles through the live lanes.
    const std::size_t nl = pb->channels.size();
    const std::size_t chunks = (k + nl - 1) / nl;
    for (const std::size_t t : bad) {
      const ptc::Tile& tile = tiles[t];
      // Retry rung: the tile's slices re-modulate (charged below); those
      // stamped before the current epoch are re-encoded.  A rung that
      // re-prepared the operand left every slice current.
      if (!repacked) refresh_tile(tile);
      checks[t] = run_tile(tile, pa, *bdata, *pb, rescale, c, tile_sums.data());
      outcome.tiles_corrected += checks[t].corrected;
      const ptc::EventCounter ev = ptc::tile_events(tile, k, nl);
      events_ += ev;
      monitor_->record_retry_events(ev);
      outcome.checksum_events += ptc::checksum_lane_events(tile.rows, tile.cols, k, chunks,
                                                           cfg_.guard.column_only);
    }
    std::vector<std::size_t> still_bad;
    for (const std::size_t t : bad) {
      if (!checks[t].ok) still_bad.push_back(t);
    }
    bad = std::move(still_bad);
  }

  ptc::tally_drift(checks, outcome);
  monitor_->record_product(outcome);
  return c;
}

}  // namespace pdac::faults
