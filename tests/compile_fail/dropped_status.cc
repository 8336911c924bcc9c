// Must not compile: fwbase::Status is [[nodiscard]] and the build passes
// -Werror=unused-result, so dropping one from a free-function call is an
// error.
#include "src/base/status.h"

fwbase::Status Remove() { return fwbase::Status::Ok(); }

void Caller() { Remove(); }
