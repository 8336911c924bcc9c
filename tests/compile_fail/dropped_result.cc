// Must not compile: a dropped fwbase::Result<T> ([[nodiscard]]) is an error
// under -Werror=unused-result.
#include "src/base/status.h"

fwbase::Result<int> Lookup() { return 1; }

void Caller() { Lookup(); }
