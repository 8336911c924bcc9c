#include "src/storage/document_db.h"

#include <utility>

namespace fwstore {

using fwbase::Result;
using fwbase::Status;

namespace {

// Server-side request processing (auth, JSON parse, B-tree update).
constexpr Duration kPerRequestCost = Duration::Micros(350);
// Extra cost to append to the _changes feed on writes.
constexpr Duration kChangesFeedCost = Duration::Micros(60);

}  // namespace

DocumentDb::DocumentDb(fwsim::Simulation& sim, Filesystem& fs)
    : sim_(sim), fs_(fs), update_feed_(sim) {}

fwsim::Co<Status> DocumentDb::Put(const std::string& db, Document doc) {
  ++puts_;
  co_await fwsim::Delay(sim_, kPerRequestCost);
  co_await fs_.WriteFile(doc.SizeBytes());
  co_await fwsim::Delay(sim_, kChangesFeedCost);
  UpdateEvent event{db, doc};
  dbs_[db][doc.key] = std::move(doc);
  update_feed_.Send(std::move(event));
  co_return Status::Ok();
}

fwsim::Co<Result<Document>> DocumentDb::Get(const std::string& db, const std::string& key) {
  ++gets_;
  co_await fwsim::Delay(sim_, kPerRequestCost);
  auto db_it = dbs_.find(db);
  if (db_it == dbs_.end()) {
    co_return Status::NotFound("no database " + db);
  }
  auto doc_it = db_it->second.find(key);
  if (doc_it == db_it->second.end()) {
    co_return Status::NotFound("no document " + key + " in " + db);
  }
  // Copy before suspending: a concurrent Delete of this document while
  // ReadFile runs erases the node doc_it points at. Runtime impact: one
  // Document copy per Get; the simulated read size and the returned value
  // (as of read start) are unchanged.
  Document doc = doc_it->second;
  co_await fs_.ReadFile(doc.SizeBytes());
  co_return doc;
}

fwsim::Co<std::vector<Document>> DocumentDb::Scan(const std::string& db) {
  co_await fwsim::Delay(sim_, kPerRequestCost);
  std::vector<Document> out;
  auto db_it = dbs_.find(db);
  if (db_it == dbs_.end()) {
    co_return out;
  }
  uint64_t total_bytes = 0;
  for (const auto& [key, doc] : db_it->second) {
    out.push_back(doc);
    total_bytes += doc.SizeBytes();
  }
  if (total_bytes > 0) {
    co_await fs_.ReadFile(total_bytes);
  }
  co_return out;
}

fwsim::Co<Status> DocumentDb::Delete(const std::string& db, const std::string& key) {
  co_await fwsim::Delay(sim_, kPerRequestCost);
  auto db_it = dbs_.find(db);
  if (db_it == dbs_.end() || db_it->second.erase(key) == 0) {
    co_return Status::NotFound("no document " + key + " in " + db);
  }
  co_return Status::Ok();
}

size_t DocumentDb::DocCount(const std::string& db) const {
  auto it = dbs_.find(db);
  return it == dbs_.end() ? 0 : it->second.size();
}

}  // namespace fwstore
