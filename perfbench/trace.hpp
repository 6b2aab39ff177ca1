// Span recording for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around calls into the
// library's public functions: a Propagator wrapper (FNO, PDE and fallback
// windows, called unchanged by HybridScheduler and RolloutServer), an
// NsSolver wrapper inside PdePropagator, and the serving loop's timing of
// RolloutServer::submit / step. Each record holds name, start, end, parent
// and request id; records stay in memory and are written out at exit. All
// spans are opened and closed on the driving thread, so the recorder keeps
// no locks; nothing records inside thread-pool workers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/propagator.hpp"
#include "ns/solver.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;          ///< index of the enclosing span, -1 at the root
  std::int64_t request = -1;  ///< request id the span belongs to
};

class Tracer {
 public:
  /// The process-wide recorder (off until set_enabled(true)).
  static Tracer& get();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Request id stamped on spans opened from now on.
  void set_request(std::int64_t id) { request_ = id; }

  int begin(const char* name);
  void end(int index);

  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }

  /// Summed duration of spans named `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Summed self time (duration minus the time covered by child spans).
  [[nodiscard]] double self_total(const std::string& name) const;

  /// Write every record as one JSON object per line.
  bool write(const std::string& path) const;

  [[nodiscard]] double now() const;

 private:
  Tracer();
  bool enabled_ = false;
  std::int64_t request_ = -1;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> records_;
  std::vector<int> stack_;
};

/// RAII span on the process-wide recorder; a no-op while it is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::get().enabled() ? Tracer::get().begin(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::get().end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Forwarding Propagator that records one span per advance() call. name()
/// forwards too, so producer labels and obs metric names stay unchanged.
class TracedPropagator final : public turb::core::Propagator {
 public:
  TracedPropagator(turb::core::Propagator& inner, const char* span)
      : inner_(&inner), span_(span) {}

  std::vector<turb::core::FieldSnapshot> advance(
      const turb::core::History& history, turb::index_t count) override {
    ScopedSpan span(span_);
    return inner_->advance(history, count);
  }
  [[nodiscard]] double dt_snap() const override { return inner_->dt_snap(); }
  [[nodiscard]] turb::index_t min_history() const override {
    return inner_->min_history();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  turb::core::Propagator* inner_;
  const char* span_;
};

/// Forwarding NsSolver for PdePropagator: spans around set_vorticity, step
/// and the vorticity readback, and the allocation count of step().
class TracedNsSolver final : public turb::ns::NsSolver {
 public:
  explicit TracedNsSolver(std::unique_ptr<turb::ns::NsSolver> inner);

  void set_vorticity(const turb::TensorD& omega) override;
  void step(turb::index_t steps) override;
  [[nodiscard]] turb::TensorD vorticity() const override;

  [[nodiscard]] std::int64_t steps() const { return steps_; }
  [[nodiscard]] std::int64_t step_allocs() const { return step_allocs_; }

 private:
  std::unique_ptr<turb::ns::NsSolver> inner_;
  std::int64_t steps_ = 0;
  std::int64_t step_allocs_ = 0;
};

}  // namespace perfbench
