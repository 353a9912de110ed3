// Fundamental identifier and coordinate types of the CPS data model.
//
// Time is discretized into fixed-length windows.  A `WindowId` is an absolute
// window index counted from the dataset epoch (day 0, minute 0), so a window
// id encodes both the day and the time of day; `TimeGrid` converts between
// the representations.  Space is a planar map measured in miles (the paper's
// distance threshold δd is given in miles).
#ifndef ATYPICAL_CPS_TYPES_H_
#define ATYPICAL_CPS_TYPES_H_

#include <cmath>
#include <cstdint>
#include <limits>

namespace atypical {

using SensorId = uint32_t;
using WindowId = uint32_t;
using RegionId = uint32_t;
using HighwayId = uint32_t;
using EventId = uint64_t;
using ClusterId = uint64_t;

inline constexpr SensorId kInvalidSensor =
    std::numeric_limits<SensorId>::max();
inline constexpr RegionId kInvalidRegion =
    std::numeric_limits<RegionId>::max();
inline constexpr EventId kNoEvent = 0;

// Planar map coordinate in miles.
struct GeoPoint {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const GeoPoint& a, const GeoPoint& b) {
    return a.x == b.x && a.y == b.y;
  }
};

inline double DistanceMiles(const GeoPoint& a, const GeoPoint& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

// Axis-aligned spatial rectangle (used for query regions W).
struct GeoRect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  bool Contains(const GeoPoint& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }
  double Width() const { return max_x - min_x; }
  double Height() const { return max_y - min_y; }
};

// The time discretization of a dataset: length of one window in minutes.
// Converts absolute WindowId <-> (day, window-of-day, minute-of-day).
class TimeGrid {
 public:
  TimeGrid() : window_minutes_(5) {}
  explicit TimeGrid(int window_minutes) : window_minutes_(window_minutes) {}

  int window_minutes() const { return window_minutes_; }
  int WindowsPerDay() const { return 1440 / window_minutes_; }

  int DayOfWindow(WindowId w) const {
    return static_cast<int>(w) / WindowsPerDay();
  }
  int WindowOfDay(WindowId w) const {
    return static_cast<int>(w) % WindowsPerDay();
  }
  int MinuteOfDay(WindowId w) const {
    return WindowOfDay(w) * window_minutes_;
  }
  WindowId MakeWindow(int day, int window_of_day) const {
    return static_cast<WindowId>(day) * WindowsPerDay() + window_of_day;
  }
  // Absolute start minute of the window since epoch.
  int64_t StartMinute(WindowId w) const {
    return static_cast<int64_t>(w) * window_minutes_;
  }
  // Def. 1's interval(): the gap in minutes between the two windows as time
  // intervals — 0 for the same or adjacent windows, growing by the window
  // length per step.  (Using start-to-start distance instead would make
  // adjacent windows "unrelated" whenever δt <= window length, splitting
  // every event at each window boundary.)
  int64_t IntervalMinutes(WindowId a, WindowId b) const {
    int64_t d = StartMinute(a) - StartMinute(b);
    if (d < 0) d = -d;
    return d <= window_minutes_ ? 0 : d - window_minutes_;
  }

  friend bool operator==(const TimeGrid& a, const TimeGrid& b) {
    return a.window_minutes_ == b.window_minutes_;
  }

 private:
  int window_minutes_;
};

// Half-open absolute window range [begin, end).
struct WindowRange {
  WindowId begin = 0;
  WindowId end = 0;

  bool Contains(WindowId w) const { return w >= begin && w < end; }
  uint32_t size() const { return end > begin ? end - begin : 0; }
  bool empty() const { return end <= begin; }
};

// Inclusive day range [first_day, last_day] (query time ranges T are given
// in whole days, as in the paper's experiments).
struct DayRange {
  int first_day = 0;
  int last_day = -1;

  // In 64 bits: {INT_MIN, INT_MAX} spans 2^32 days.
  int64_t NumDays() const {
    return last_day >= first_day ? int64_t{last_day} - first_day + 1 : 0;
  }
  bool ContainsDay(int day) const {
    return day >= first_day && day <= last_day;
  }
  WindowRange ToWindows(const TimeGrid& grid) const {
    if (NumDays() <= 0) return WindowRange{};
    return WindowRange{grid.MakeWindow(first_day, 0),
                       grid.MakeWindow(last_day + 1, 0)};
  }
};

}  // namespace atypical

#endif  // ATYPICAL_CPS_TYPES_H_
