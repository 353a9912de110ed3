// Lint fixture: determinism violations the AL009/AL010/AL012/AL016 checks
// must catch in deterministic modules.  Exercised by
// atypical_lint.py --self-test; never compiled.
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

using Sketch = std::unordered_map<int, double>;

double LeakyMass(const std::unordered_map<int, double>& label_mass) {
  double total = 0.0;
  for (const auto& [label, mass] : label_mass) {  // EXPECT-LINT: AL009
    total += mass;  // EXPECT-LINT: AL012
  }
  return total;
}

int LeakyFirst(const std::unordered_set<int>& w_set) {
  for (auto it = w_set.begin(); it != w_set.end(); ++it) {  // EXPECT-LINT: AL009
    return *it;
  }
  return -1;
}

struct Levels {
  Sketch levels[4];
};

int LeakyArrayElement(const Levels& lv) {
  int sum = 0;
  for (const auto& kv : lv.levels[2]) {  // EXPECT-LINT: AL009
    sum += kv.first;
  }
  return sum;
}

long Ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // EXPECT-LINT: AL010
}

int Noise() {
  return rand();  // EXPECT-LINT: AL010
}

unsigned Entropy() {
  std::random_device rd;  // EXPECT-LINT: AL010
  return rd();
}

unsigned long Identity(const int* p) {
  return reinterpret_cast<uintptr_t>(p);  // EXPECT-LINT: AL010
}

// A const read that sorts under the hood: two readers of a shared object
// race on both members.
class LazySorted {
 public:
  int size() const;

 private:
  mutable std::vector<int> entries_;  // EXPECT-LINT: AL016
  mutable bool dirty_ = false;  // EXPECT-LINT: AL016
};

struct Memo {
  std::map<int, double> mutable cache;  // EXPECT-LINT: AL016
};

}  // namespace fixture
