// Figure 4: write performance overhead of each random-IV layout relative to
// the LUKS2 baseline (lower is better). The paper reports 1%-22% for the
// object-end layout depending on IO size, OMAP best at small IOs but
// collapsing at large ones, and unaligned worst due to read-modify-writes.
//
// Usage: bench_fig4_overhead [--quick]
#include <cstdio>
#include <cstring>

#include "cluster_fixture.h"

int main(int argc, char** argv) {
  using namespace vde;
  using namespace vde::bench;

  const bool quick = HasFlag(argc, argv, "--quick");
  const auto specs = PaperSpecs();
  auto sizes = PaperIoSizes();
  if (quick) sizes = {4096, 65536, 1ull << 20, 4ull << 20};

  std::printf("Reproduction of HotStorage'22 Fig. 4: write overhead vs LUKS2 "
              "baseline [%%], QD=32 (lower is better)\n");
  std::printf("%8s", "IO size");
  for (size_t i = 1; i < specs.size(); ++i) {
    std::printf("  %12s", specs[i].name);
  }
  std::printf("\n");

  double object_end_min = 1e9, object_end_max = -1e9;
  for (const uint64_t io : sizes) {
    const double base =
        RunPoint(PaperImage(specs[0].spec), io, /*is_write=*/true);
    std::printf("%8s", HumanSize(io).c_str());
    std::fflush(stdout);
    for (size_t i = 1; i < specs.size(); ++i) {
      const double point =
          RunPoint(PaperImage(specs[i].spec), io, /*is_write=*/true);
      const double overhead =
          base > 0 ? (1.0 - point / base) * 100.0 : 0.0;
      if (std::strcmp(specs[i].name, "Object end") == 0) {
        object_end_min = std::min(object_end_min, overhead);
        object_end_max = std::max(object_end_max, overhead);
      }
      std::printf("  %11.1f%%", overhead);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\nObject-end overhead range: %.1f%% .. %.1f%%  "
              "(paper: 1%% .. 22%%)\n",
              object_end_min, object_end_max);
  return ExitCode();
}
