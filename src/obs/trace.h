// RAII scoped timers feeding the obs histograms.
//
//   void Integrate(...) {
//     obs::TraceSpan span(obs::Registry()->GetHistogram(
//         "integration.seconds"));
//     ...  // recorded on scope exit
//   }
//
// Stop() ends the span early and returns the elapsed seconds (once; later
// calls return the same reading).
#ifndef ATYPICAL_OBS_TRACE_H_
#define ATYPICAL_OBS_TRACE_H_

#include "obs/stats.h"
#include "util/stopwatch.h"

namespace atypical {
namespace obs {

class TraceSpan {
 public:
  // `hist` may be null: the span then only measures (for Stop() callers).
  explicit TraceSpan(Histogram* hist) : hist_(hist) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Stop(); }

  // Records the elapsed time into the histogram and returns it (seconds).
  // Idempotent; the destructor calls it too.
  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      elapsed_seconds_ = timer_.ElapsedSeconds();
      if (hist_ != nullptr) hist_->Record(elapsed_seconds_);
    }
    return elapsed_seconds_;
  }

 private:
  Histogram* const hist_;
  Stopwatch timer_;
  bool stopped_ = false;
  double elapsed_seconds_ = 0.0;
};

}  // namespace obs
}  // namespace atypical

#endif  // ATYPICAL_OBS_TRACE_H_
