// Lint fixture: order-safe patterns the determinism checks must NOT flag.
// Exercised by atypical_lint.py --self-test; never compiled.
#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace fixture {

using Sketch = std::unordered_map<int, double>;

// Membership lookups are fine; only iteration leaks hash order.
bool Member(const std::unordered_set<int>& w_set, int id) {
  return w_set.contains(id);
}

// The sort-a-copy fix idiom: .begin() outside any for-init, then an ordered
// iteration over the sorted vector.
double SortedMass(const Sketch& label_mass) {
  std::vector<std::pair<int, double>> ordered(label_mass.begin(),
                                              label_mass.end());
  std::sort(ordered.begin(), ordered.end());
  double total = 0.0;
  for (const auto& [label, mass] : ordered) {
    total += mass;
  }
  return total;
}

// Iterating an array OF maps walks index order, not hash order.
struct Levels {
  Sketch levels[4];
};

unsigned long CellCount(const Levels& lv) {
  unsigned long cells = 0;
  for (const Sketch& level : lv.levels) {
    cells += level.size();
  }
  return cells;
}

// Subscripting a scalar map in a range expression names the mapped value,
// not the map; the loop below iterates the ordered row vector.
int CountHot(Sketch& by_row, const std::vector<int>& row) {
  int hot = 0;
  for (int v : row) {
    hot += by_row[v] > 0.5 ? 1 : 0;
  }
  return hot;
}

// A lock and an atomic are the mutable members const readers may share; a
// mutable lambda is no data member.
class Tally {
 public:
  int Bump() const {
    auto next = [n = hits_.load()]() mutable { return ++n; };
    return next();
  }

 private:
  mutable util::Mutex mu_;
  int total_ ATYPICAL_GUARDED_BY(mu_) = 0;
  mutable std::atomic<int> hits_{0};
};

}  // namespace fixture
