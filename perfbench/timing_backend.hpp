// timing_backend.hpp — the benchmark's tracing layer, kept outside the
// library: an in-memory span recorder and a GemmBackend decorator that
// times every product and attributes its events to a GEMM kind and a
// weight role.
//
// The decorator forwards matmul / matmul_cached / matmul_kv / release_kv
// to the wrapped backend unchanged, so outputs and events are the
// wrapped backend's own; it only adds a clock read on each side of a
// call and the events() delta.  Untraced runs call the real backend
// directly and never construct one.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/backend.hpp"

namespace perfbench {

using pdac::Matrix;
using pdac::ptc::EventCounter;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline EventCounter operator-(const EventCounter& a, const EventCounter& b) {
  EventCounter d;
  d.modulation_events = a.modulation_events - b.modulation_events;
  d.detection_events = a.detection_events - b.detection_events;
  d.adc_events = a.adc_events - b.adc_events;
  d.ddot_ops = a.ddot_ops - b.ddot_ops;
  d.macs = a.macs - b.macs;
  d.cycles = a.cycles - b.cycles;
  return d;
}

/// One timed interval at a benchmark call boundary.
struct Span {
  const char* name;  ///< static string: "pass", "token", "attn", "weight", ...
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index of the enclosing span, -1 at the root
  std::uint64_t id;     ///< pass, token or layer index; the Role of a backend call
};

/// Spans kept in memory in open order; write_csv() dumps them at exit.
class SpanRecorder {
 public:
  /// Open a span under the innermost open one.
  void open(const char* name, std::uint64_t id) {
    const auto parent = stack_.empty() ? std::int32_t{-1} : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, id});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span named `name` [ns].
  [[nodiscard]] std::int64_t total_ns(const std::string& name) const {
    std::int64_t t = 0;
    for (const Span& s : spans_) {
      if (name == s.name) t += s.end_ns - s.start_ns;
    }
    return t;
  }

  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index,name,start_ns,end_ns,parent,id\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%lld,%lld,%d,%llu\n", i, s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   s.parent, static_cast<unsigned long long>(s.id));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Opens a span for the lifetime of the guard (no-op without a recorder).
class SpanGuard {
 public:
  SpanGuard(SpanRecorder* rec, const char* name, std::uint64_t id) : rec_(rec) {
    if (rec_ != nullptr) rec_->open(name, id);
  }
  ~SpanGuard() {
    if (rec_ != nullptr) rec_->close();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  SpanRecorder* rec_;
};

/// The three product kinds the backend interface distinguishes.
enum class Kind { kWeight, kKv, kAct, kCount };
/// Which model block a product belongs to.  Weight products take the
/// role of their Linear (registered by id); KV and activation products
/// are attention's score/context products.
enum class Role { kQ, kK, kV, kO, kUp, kDown, kKv, kAct, kCount };

inline bool is_attention(Role r) { return r != Role::kUp && r != Role::kDown; }

struct CallStats {
  std::uint64_t calls{0};
  std::int64_t ns{0};
  EventCounter events;
};

class TimingBackend final : public pdac::nn::GemmBackend {
 public:
  TimingBackend(pdac::nn::GemmBackend& inner, SpanRecorder& rec) : inner_(inner), rec_(rec) {}

  /// Map a Linear's weight id to its role (Linear::weight_handle().id).
  void register_weight(std::uint64_t id, Role role) { roles_[id] = role; }

  Matrix matmul(const Matrix& a, const Matrix& b) override {
    return timed(Kind::kAct, Role::kAct, "act", [&] { return inner_.matmul(a, b); });
  }
  Matrix matmul_cached(const Matrix& a, const Matrix& b,
                       const pdac::nn::WeightHandle& w) override {
    const auto it = roles_.find(w.id);
    const Role role = it == roles_.end() ? Role::kCount : it->second;
    return timed(Kind::kWeight, role, "weight", [&] { return inner_.matmul_cached(a, b, w); });
  }
  Matrix matmul_kv(const Matrix& a, const Matrix& kv, const pdac::nn::KvHandle& h) override {
    return timed(Kind::kKv, Role::kKv, "kv", [&] { return inner_.matmul_kv(a, kv, h); });
  }
  void release_kv(std::uint64_t id) override { inner_.release_kv(id); }

  [[nodiscard]] std::string name() const override { return "timed:" + inner_.name(); }
  [[nodiscard]] const pdac::nn::OperandCache* operand_cache() const override {
    return inner_.operand_cache();
  }
  [[nodiscard]] const pdac::nn::KvPreparedCache* kv_cache() const override {
    return inner_.kv_cache();
  }
  [[nodiscard]] const pdac::nn::GuardStats* guard_stats() const override {
    return inner_.guard_stats();
  }

  [[nodiscard]] const CallStats& by_kind(Kind k) const {
    return kinds_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const CallStats& by_role(Role r) const {
    return roles_stats_[static_cast<std::size_t>(r)];
  }
  /// Products whose weight id was never registered (must stay 0).
  [[nodiscard]] std::uint64_t unmapped_calls() const {
    return roles_stats_[static_cast<std::size_t>(Role::kCount)].calls;
  }

 private:
  template <class F>
  Matrix timed(Kind kind, Role role, const char* span, F&& call) {
    const EventCounter before = inner_.events();
    rec_.open(span, static_cast<std::uint64_t>(role));
    const std::int64_t t0 = now_ns();
    Matrix c = call();
    const std::int64_t dt = now_ns() - t0;
    rec_.close();
    const EventCounter delta = inner_.events() - before;
    events_ += delta;
    for (CallStats* s : {&kinds_[static_cast<std::size_t>(kind)],
                         &roles_stats_[static_cast<std::size_t>(role)]}) {
      ++s->calls;
      s->ns += dt;
      s->events += delta;
    }
    return c;
  }

  pdac::nn::GemmBackend& inner_;
  SpanRecorder& rec_;
  std::unordered_map<std::uint64_t, Role> roles_;
  CallStats kinds_[static_cast<std::size_t>(Kind::kCount)];
  CallStats roles_stats_[static_cast<std::size_t>(Role::kCount) + 1];
};

}  // namespace perfbench
