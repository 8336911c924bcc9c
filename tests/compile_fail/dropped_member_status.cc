// Must not compile: dropping the fwbase::Status of a member call is an error
// under -Werror=unused-result, like a free-function call.
#include "src/base/status.h"

class Store {
 public:
  fwbase::Status Remove(int key) { return fwbase::Status::Ok(); }
};

void Caller(Store& store) { store.Remove(1); }
