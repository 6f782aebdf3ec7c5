#ifndef DIFFODE_PERFBENCH_RECORDER_H_
#define DIFFODE_PERFBENCH_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace diffode::perfbench {

// Everything one benchmark run measures, kept in memory and written out as
// one JSON document when the run ends (perfbench/run.py summarizes it):
//
//   * samples: named lists of raw values (request latencies, setup times,
//     per-request layer counters); run.py reduces each list to a median or
//     percentile, so no statistic is computed twice in two languages;
//   * values: named single values (val_mse, peak RSS, totals);
//   * spans: with tracing on, one record per timed call into a layer —
//     name, request id, parent span and [start, end) in nanoseconds since
//     the recorder was created. Spans nest through a stack, so a span's
//     parent is whichever span was open on the client thread when it began;
//   * attempted / failed: requests (or epochs) the run served and how many
//     of them failed their correctness check.
//
// With tracing off, Span is a no-op, so the untraced run pays one branch
// per call site.
class Recorder {
 public:
  explicit Recorder(bool trace);

  bool tracing() const { return trace_; }

  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Set(const std::string& name, double value) { values_[name] = value; }
  void SetMeta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }

  // Counts one served request (or trained epoch) and whether it passed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  // RAII span around one call into a layer. `name` must be a string
  // literal (only the pointer is stored). A null recorder records nothing.
  class Span {
   public:
    Span(Recorder* rec, const char* name, std::int64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Recorder* rec_;
    std::int64_t index_ = -1;
  };

  // Writes the whole record as one line of JSON.
  void WriteJson(std::FILE* out) const;

 private:
  struct SpanRecord {
    const char* name;
    std::int64_t request;
    std::int64_t parent;  // index into spans_, -1 for a root span
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool trace_;
  std::chrono::steady_clock::time_point origin_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> meta_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indices
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// Seconds since `start` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace diffode::perfbench

#endif  // DIFFODE_PERFBENCH_RECORDER_H_
