// perfbench: the live-path benchmark binary. `perfbench drive ...` runs a
// workload (generator + orchestrator); it launches `perfbench serve ...`
// children as the servers under test. See perfbench/NOTES.md.
#include <cstdio>
#include <cstring>

#include "common.h"

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return perfbench::ServeMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "drive") == 0) {
    return perfbench::DriveMain(argc, argv);
  }
  std::fprintf(stderr, "usage: %s drive|serve [flags]\n", argv[0]);
  return 2;
}
