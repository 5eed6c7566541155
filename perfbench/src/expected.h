#ifndef PERFBENCH_EXPECTED_H_
#define PERFBENCH_EXPECTED_H_

// Content digests (see ContentDigest in workloads.cc) of the batch
// workloads' outputs at the default seed, recorded from a `--threads 1`
// run. A change that alters these outputs on purpose updates them here.

#include <cstdint>
#include <string>

namespace perfbench {

inline constexpr uint64_t kDefaultSeed = 2007;

/// The recorded digest of `file` for `workload`, or "" when none is
/// recorded (any seed but the default).
inline std::string ExpectedDigest(const std::string& workload, bool tiny,
                                  uint64_t seed, const std::string& file) {
  if (seed != kDefaultSeed) return "";
  struct Entry {
    const char* workload;
    bool tiny;
    const char* file;
    const char* digest;
  };
  static const Entry kEntries[] = {
      {"city-pipeline", false, "txdb.sfpm", "b03fcd774cccbd4a"},
      {"city-pipeline", false, "patterns.sfpm", "d5e52d02dc05bef1"},
      {"mine-itemsets", false, "patterns.sfpm", "84538b55c8d943d1"},
      {"city-coloc", false, "colocations.sfpm", "4054334f6f29d257"},
      {"city-pipeline", true, "txdb.sfpm", "ff8552fc82da24d3"},
      {"city-pipeline", true, "patterns.sfpm", "00e0c8053b96be5d"},
      {"mine-itemsets", true, "patterns.sfpm", "f3947cd78648e505"},
      {"city-coloc", true, "colocations.sfpm", "0da894ca7b3f931b"},
  };
  for (const Entry& e : kEntries) {
    if (workload == e.workload && tiny == e.tiny && file == e.file) {
      return e.digest;
    }
  }
  return "";
}

}  // namespace perfbench

#endif  // PERFBENCH_EXPECTED_H_
