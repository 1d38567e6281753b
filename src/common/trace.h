#ifndef RDFA_COMMON_TRACE_H_
#define RDFA_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace rdfa {

/// Per-query span tracer. One Tracer lives for the duration of one query
/// (or one interactive session action) and records *completed* spans —
/// named, timestamped intervals with optional key/value arguments — from
/// any thread that touches the query: the parse, the BGP plan, every
/// pattern join, the group-aggregate pass, HIFUN evaluation, roll-up cache
/// merges, endpoint admission queueing.
///
/// The tracer is reached through QueryContext::tracer(), so it rides the
/// existing deadline/cancellation plumbing: anything that can be cancelled
/// can also be traced. Tracing is *off* unless a Tracer is attached; the
/// disabled path is a null-pointer check per span site (Span's constructor
/// and destructor both early-out), so the tracing-off run does exactly the
/// work it did before this layer existed and results stay byte-identical.
///
/// Spans are recorded on completion as Chrome trace-event "X" (complete)
/// events: unwinding on a tripped deadline still closes every span because
/// Span is RAII — an aborted query yields a well-formed trace whose deepest
/// span names the stage the budget died in. ToChromeJson() renders a JSON
/// object loadable in Perfetto / chrome://tracing.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// One completed span, as kept for export and for tests.
  struct SpanRecord {
    std::string name;
    double start_us = 0;  ///< microseconds since the tracer's epoch
    double dur_us = 0;
    int tid = 0;  ///< small per-tracer thread ordinal, 0 = first thread seen
    /// Creation-order span id, unique within the tracer. Parent is the id of
    /// the innermost span open *on the same thread* when this one began
    /// (-1 = root) — the same containment relation Perfetto renders, kept
    /// explicitly so ProfileJson can rebuild the operator tree after the
    /// flat completion-ordered record list is all that is left.
    int64_t id = -1;
    int64_t parent = -1;
    /// Arguments in insertion order; values are pre-rendered JSON (numbers
    /// bare, strings quoted+escaped).
    std::vector<std::pair<std::string, std::string>> args;
  };

  /// RAII span: begins timing at construction, records the completed span
  /// at destruction. A null tracer disables both ends (the disabled-path
  /// cost argument in DESIGN.md §10). Spans nest by containment — Perfetto
  /// stacks same-thread intervals — so hold the Span object across the
  /// stage it names.
  /// A non-null `add_ms` makes the span its stage's only clock: it reads the
  /// clock even untraced and on close adds its duration (ms) to `*add_ms`,
  /// from the same two timestamps a traced span records.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, double* add_ms = nullptr)
        : tracer_(tracer), name_(name), add_ms_(add_ms) {
      if (tracer_ != nullptr || add_ms_ != nullptr) start_ = Clock::now();
      if (tracer_ != nullptr) id_ = tracer_->BeginSpan(&parent_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ == nullptr && add_ms_ == nullptr) return;
      const Clock::time_point end = Clock::now();
      if (add_ms_ != nullptr) {
        *add_ms_ += std::chrono::duration<double, std::milli>(end - start_)
                        .count();
      }
      if (tracer_ != nullptr) {
        tracer_->EndSpan(id_);
        tracer_->RecordSpan(name_, start_, end, id_, parent_,
                            std::move(args_));
      }
    }

    /// Attaches an argument, shown in the trace viewer on this span.
    /// Cheap no-ops when the tracer is disabled.
    void Arg(const char* key, int64_t value) {
      if (tracer_ != nullptr) {
        args_.emplace_back(key, std::to_string(value));
      }
    }
    void Arg(const char* key, uint64_t value) {
      if (tracer_ != nullptr) {
        args_.emplace_back(key, std::to_string(value));
      }
    }
    void Arg(const char* key, double value);
    void Arg(const char* key, const std::string& value);
    void Arg(const char* key, const char* value);
    void Arg(const char* key, bool value) {
      if (tracer_ != nullptr) {
        args_.emplace_back(key, value ? "true" : "false");
      }
    }

    bool enabled() const { return tracer_ != nullptr; }

   private:
    Tracer* tracer_;
    const char* name_;
    double* add_ms_;
    Clock::time_point start_{};
    int64_t id_ = -1;
    int64_t parent_ = -1;
    std::vector<std::pair<std::string, std::string>> args_;
  };

  /// An instantaneous event (Chrome phase "i"), e.g. a cache hit marker.
  void Instant(const char* name);

  /// Completed spans so far, in completion order. Copies under the lock —
  /// intended for tests and end-of-query export, not hot paths.
  std::vector<SpanRecord> FinishedSpans() const;

  size_t span_count() const;

  /// True if at least one finished span carries `name`.
  bool HasSpan(const std::string& name) const;

  /// The whole trace as one Chrome trace-event JSON object:
  /// {"displayTimeUnit":"ms","traceEvents":[...]}. Timestamps are
  /// microseconds since the tracer epoch; pid is constant, tid is the
  /// per-tracer thread ordinal.
  std::string ToChromeJson() const;

  /// The operator-level profile tree: finished spans nested by parent link,
  /// each node {"op","start_ms","ms","args"?,"children"?}, siblings in
  /// creation (id) order, roots gathered under one JSON array. This is the
  /// EXPLAIN ANALYZE payload — the "execute" span is normally the sole
  /// root, with seed scans / joins / aggregation as its subtree.
  std::string ProfileJson() const;

 private:
  friend class Span;

  /// Assigns a fresh span id, reports the enclosing same-thread span of
  /// *this tracer* through `*parent` (-1 = none) and pushes the new span
  /// onto the thread's open-span stack.
  int64_t BeginSpan(int64_t* parent);
  /// Pops `id` off the thread's open-span stack (RAII makes it the top).
  void EndSpan(int64_t id);

  void RecordSpan(const char* name, Clock::time_point start,
                  Clock::time_point end, int64_t id, int64_t parent,
                  std::vector<std::pair<std::string, std::string>> args);
  int TidOrdinalLocked(std::thread::id id);
  double SinceEpochUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  const Clock::time_point epoch_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, int> tids_;
};

using TraceSpan = Tracer::Span;

}  // namespace rdfa

#endif  // RDFA_COMMON_TRACE_H_
