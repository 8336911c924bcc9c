// Must compile: the explicit (void) opt-out for every form the
// compile_fail_dropped_* cases drop. It includes the same headers, so a
// broken include fails this control instead of passing those cases.
#include "src/base/status.h"
#include "src/simcore/coro.h"

fwbase::Status Remove() { return fwbase::Status::Ok(); }
fwbase::Result<int> Lookup() { return 1; }
fwsim::Co<void> Persist() { co_return; }

class Store {
 public:
  fwbase::Status Remove(int key) { return fwbase::Status::Ok(); }
};

void Caller(Store& store) {
  (void)Remove();
  (void)Lookup();
  (void)Persist();
  (void)store.Remove(1);
}
