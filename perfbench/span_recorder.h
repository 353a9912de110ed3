// Span recorder for the benchmark's traced run.
//
// The benchmark records one span around each call it makes into a layer of
// the system (ingest, integration, forest, cube, serve, query).  Spans stay
// in memory and are written out once, when the run ends.  A layer's self
// time is the time its spans cover minus the time their child spans cover;
// whatever no span covers is the caller's own time ("other").
//
// The benchmark is single-threaded, so the innermost open span is the
// parent of the next one and a plain stack suffices.  When the recorder is
// disabled a Scope costs one branch: the untraced run records nothing.
#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // "<layer>.<call>"; always a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 for a root
  uint32_t op = 0;      // op id; 0 for set-up
};

// Layer of a span name: the part before the first '.'.
inline std::string LayerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(uint32_t op) { op_ = op; }
  size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span at construction and closes it at destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
      if (recorder_->enabled_) index_ = recorder_->Open(name, NowNs());
    }
    ~Scope() {
      if (index_ >= 0) recorder_->Close(index_, NowNs());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Index of this span, -1 when the recorder was disabled.
    int32_t index() const { return index_; }

   private:
    SpanRecorder* recorder_;
    int32_t index_ = -1;
  };

  // Adds a closed child span of `parent` covering `seconds` that ends
  // `before_end_s` seconds before the parent ends.  The benchmark uses it
  // for work a call reports about itself (QueryCost) but that it cannot
  // wrap from outside.  The child is clamped into its parent.
  void AddReportedChild(int32_t parent, const char* name, double seconds,
                        double before_end_s) {
    if (parent < 0) return;
    const Span& p = spans_[parent];
    const int64_t end = std::max(
        p.start_ns, p.end_ns - static_cast<int64_t>(before_end_s * 1e9));
    const int64_t start =
        std::max(p.start_ns, end - static_cast<int64_t>(seconds * 1e9));
    spans_.push_back(Span{name, start, end, parent, p.op});
  }

  struct Summary {
    std::map<std::string, double> layer_self_s;  // by layer
    std::map<std::string, double> name_total_s;  // by span name
    double covered_s = 0.0;                      // root spans only
  };

  // Self time per layer, total time per span name and root coverage over
  // spans [first, last).  Children always follow their parent, so the
  // range holds whole span trees when it starts at a root.
  Summary Summarize(size_t first, size_t last) const {
    Summary summary;
    std::vector<double> child_s(last - first, 0.0);
    for (size_t i = first; i < last; ++i) {
      const Span& s = spans_[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (s.parent >= static_cast<int32_t>(first)) {
        child_s[static_cast<size_t>(s.parent) - first] += d;
      } else {
        summary.covered_s += d;
      }
    }
    for (size_t i = first; i < last; ++i) {
      const Span& s = spans_[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      summary.layer_self_s[LayerOf(s.name)] += d - child_s[i - first];
      summary.name_total_s[s.name] += d;
    }
    return summary;
  }

  // Writes every span as JSON lines: name, start, end, parent, op.
  bool WriteJsonLines(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"op\":%u}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.op);
    }
    return std::fclose(f) == 0;
  }

 private:
  int32_t Open(const char* name, int64_t now) {
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, now, now,
                          open_.empty() ? -1 : open_.back(), op_});
    open_.push_back(index);
    return index;
  }
  void Close(int32_t index, int64_t now) {
    spans_[index].end_ns = now;
    open_.pop_back();
  }

  bool enabled_ = false;
  uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
