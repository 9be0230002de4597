#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// Measurement helpers of the repository benchmark: the span recorder, the
/// statistics every figure is reported with, and closed-loop accounting.
/// Nothing here touches the simulator, so it is unit-tested on its own.
namespace perfbench {

/// Seconds on the system-wide monotonic clock. Child processes read the
/// same clock, so their spans merge with the parent's without rebasing.
[[nodiscard]] double now_s();

// ---------------------------------------------------------------- spans

/// One timed region. `parent` is the id of the span that caused it (-1 for
/// a root); `group` ties together every span of one job or submission.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "backend.run"
  double start = 0.0;
  double end = 0.0;
  int id = -1;
  int parent = -1;
  std::string group;

  [[nodiscard]] std::string layer() const;  ///< name up to the first '.'
};

/// In-memory span store; written out once, when the run ends. Disabled
/// tracers record nothing, so the untraced path pays one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a finished span; returns its id (-1 when disabled).
  int add(const std::string& name, double start, double end, int parent = -1,
          const std::string& group = {});

  /// Open a span now; close it with end(). Returns -1 when disabled.
  int begin(const std::string& name, int parent = -1,
            const std::string& group = {});
  void end(int id);

  /// Append spans recorded elsewhere (a child process), re-numbering their
  /// ids and re-parenting their roots under `parent`.
  void merge(const std::vector<Span>& spans, int parent);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, int parent = -1,
             const std::string& group = {})
      : t_(t), id_(t.begin(name, parent, group)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
[[nodiscard]] double covered(std::vector<std::pair<double, double>> iv,
                             double lo, double hi);

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other or run
/// past their parent; each instant counts once, and only inside the
/// parent). Indexed like `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per layer (Span::layer()).
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans);

/// Share of [lo, hi) that no span covers.
[[nodiscard]] double unattributed_frac(const std::vector<Span>& spans,
                                       double lo, double hi);

/// Spans as a JSON array (one object per line).
[[nodiscard]] std::string spans_json(const std::vector<Span>& spans);

// ----------------------------------------------------------- statistics

[[nodiscard]] double median(std::vector<double> v);

/// Python's statistics.quantiles(v, n=4) (exclusive method): {q1, q2, q3}.
[[nodiscard]] std::vector<double> quartiles(std::vector<double> v);

/// The percentile rule: the value at the highest percentile <= `want`
/// that still has at least `beyond` samples above it (nearest rank).
/// When even the median lacks that many, the median is reported and
/// `supported` is false. Infinite samples (failed requests) sort last.
struct Percentile {
  double value = 0.0;
  double pct = 0.0;  ///< percentile actually reported
  std::size_t n = 0;
  bool supported = false;
};
[[nodiscard]] Percentile percentile_rule(std::vector<double> v, double want,
                                         std::size_t beyond = 10);

// ---------------------------------------------------- closed-loop tally

/// One closed-loop submission as the client saw it. Times are now_s();
/// a negative time means the event never happened.
struct Submission {
  double submit = 0.0;
  double ack = -1.0;           ///< SUBMITTED frame
  double first_result = -1.0;  ///< first RESULT frame
  double done = -1.0;          ///< DONE frame
  bool ok = false;  ///< finished, every result matched the reference
};

/// Latency figures over every attempted submission: a refused or failed
/// submission counts as attempted and misses every latency limit (it
/// enters each distribution as +infinity).
struct LoopTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> ack_ms;
  std::vector<double> first_result_ms;
  std::vector<double> campaign_ms;
};
[[nodiscard]] LoopTally tally(const std::vector<Submission>& subs);

// ---------------------------------------------------------------- output

/// Ordered name -> (value, unit) map printed as the result's "metrics".
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...}, full precision.
  [[nodiscard]] std::string json() const;
  /// One "name = value unit" line per metric.
  [[nodiscard]] std::string text() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// JSON number with all significant digits; non-finite values (a latency
/// with failures beyond the percentile) print as 1e308.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
