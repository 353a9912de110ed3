// Lint fixture: justified suppressions for the determinism checks; the
// self-test proves the NOLINT path works and stays silent.  Never compiled.
#include <random>
#include <unordered_map>
#include <vector>

namespace fixture {

// Per-key rewrite: each entry is processed independently and written back to
// the same key, so visitation order cannot change the result.
int CompactAll(std::unordered_map<int, std::vector<int>>& postings) {
  int touched = 0;
  // NOLINTNEXTLINE(AL009): per-key rewrite; no cross-entry state, order-free
  for (auto it = postings.begin(); it != postings.end(); ++it) {
    it->second.shrink_to_fit();
    ++touched;
  }
  return touched;
}

double MaxMass(const std::unordered_map<int, double>& label_mass) {
  double best = 0.0;
  for (const auto& [label, mass] : label_mass) {  // NOLINT(AL009): strict max over distinct keys is order-free
    if (mass > best) best = mass;
  }
  return best;
}

long CountAll(const std::unordered_map<int, double>& m) {
  long n = 0;
  double mass_seen = 0.0;
  for (const auto& [k, v] : m) {  // NOLINT(AL009): integer count and a fixture-only sum
    ++n;
    mass_seen += v;  // NOLINT(AL012): fixture exercises the suppression path
  }
  return n;
}

// NOLINTNEXTLINE(AL010): one-shot seed report for operators; never feeds results
unsigned LogSeed() { return std::random_device{}(); }

class Histogram {
 public:
  int Count() const;

 private:
  mutable int reads_ = 0;  // NOLINT(AL016): fixture exercises the suppression path
};

}  // namespace fixture
