// Fixture: inline suppressions. The first site annotates its own line,
// the second puts the allow() in a multi-line rationale comment directly
// above the flagged line — both forms must silence raw-file-io.
#include <cstdio>
#include <fstream>

void primitives(const char* path) {
  std::rename("from", path);  // esched-lint: allow(raw-file-io): the claim primitive itself
  // esched-lint: allow(raw-file-io): streams into a unique temp file
  // that a later atomic rename moves into place, so no reader
  // ever sees it under the final name.
  std::ofstream out(path);
}
