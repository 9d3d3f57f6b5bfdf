// Figure 3 (a)+(b): random read / write bandwidth vs IO size for the LUKS2
// baseline and the three random-IV layouts. Regenerates the series of the
// paper's headline plot on the simulated paper-testbed cluster.
//
// Usage: bench_fig3_bandwidth [--figure=3a|3b|both] [--quick]
#include <cstdio>

#include "cluster_fixture.h"

namespace {

using namespace vde;
using namespace vde::bench;

void RunFigure(bool is_write, bool quick) {
  const auto specs = PaperSpecs();
  auto sizes = PaperIoSizes();
  if (quick) {
    sizes = {4096, 65536, 1ull << 20, 4ull << 20};
  }

  std::printf("\n=== Figure 3%s: random %s bandwidth [MB/s], QD=32 ===\n",
              is_write ? "b" : "a", is_write ? "write" : "read");
  std::printf("%8s", "IO size");
  for (const auto& s : specs) std::printf("  %12s", s.name);
  std::printf("\n");

  for (const uint64_t io : sizes) {
    std::printf("%8s", HumanSize(io).c_str());
    std::fflush(stdout);
    for (const auto& s : specs) {
      std::printf("  %12.1f", RunPoint(PaperImage(s.spec), io, is_write));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool do_read = !HasFlag(argc, argv, "--figure=3b");
  const bool do_write = !HasFlag(argc, argv, "--figure=3a");
  const bool quick = HasFlag(argc, argv, "--quick");
  std::printf("Reproduction of HotStorage'22 \"Rethinking Block Storage "
              "Encryption with Virtual Disks\", Fig. 3\n");
  std::printf("(simulated 3-node x 9-NVMe cluster, 3x replication, 4 MiB "
              "objects, 4 KiB encryption blocks)\n");
  if (do_read) RunFigure(/*is_write=*/false, quick);
  if (do_write) RunFigure(/*is_write=*/true, quick);
  return ExitCode();
}
