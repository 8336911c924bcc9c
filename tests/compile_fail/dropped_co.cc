// Must not compile: a fwsim::Co<T> ([[nodiscard]]) constructed and dropped
// never runs, and -Werror=unused-result makes dropping it an error.
#include "src/simcore/coro.h"

fwsim::Co<void> Persist() { co_return; }

void Caller() { Persist(); }
