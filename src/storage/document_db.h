// DocumentDb: a CouchDB-like document store with update triggers.
//
// Both ServerlessBench applications depend on it: Alexa's reminder skill reads
// and writes schedule documents, and the data-analysis application's analysis
// chain is *triggered by database updates* (Fig. 8(b), dashed box). The update
// feed is exposed as a channel the platform can consume to launch trigger
// chains, mirroring the Cloud-trigger component of Fig. 1.
#ifndef FIREWORKS_SRC_STORAGE_DOCUMENT_DB_H_
#define FIREWORKS_SRC_STORAGE_DOCUMENT_DB_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>
#include <type_traits>

#include "src/base/status.h"
#include "src/simcore/primitives.h"
#include "src/storage/filesystem.h"

namespace fwstore {

struct Document {
  // Declared constructors keep Document non-aggregate: it crosses coroutine
  // boundaries by value (see the toolchain constraint note in simcore/coro.h).
  Document() = default;
  Document(std::string key, std::string body) : key(std::move(key)), body(std::move(body)) {}

  std::string key;
  std::string body;  // Serialized JSON payload.

  uint64_t SizeBytes() const { return key.size() + body.size(); }
};
static_assert(!std::is_aggregate_v<Document>);

struct UpdateEvent {
  UpdateEvent() = default;
  UpdateEvent(std::string db, Document doc) : db(std::move(db)), doc(std::move(doc)) {}

  std::string db;
  Document doc;
};
static_assert(!std::is_aggregate_v<UpdateEvent>);

class DocumentDb {
 public:
  DocumentDb(fwsim::Simulation& sim, Filesystem& fs);

  // Inserts/updates a document; emits an UpdateEvent on the feed.
  fwsim::Co<fwbase::Status> Put(const std::string& db, Document doc);
  fwsim::Co<fwbase::Result<Document>> Get(const std::string& db, const std::string& key);
  // Returns all documents of a database (the analysis stage's full scan).
  fwsim::Co<std::vector<Document>> Scan(const std::string& db);
  fwsim::Co<fwbase::Status> Delete(const std::string& db, const std::string& key);

  // The _changes feed. The platform's cloud-trigger component consumes this.
  fwsim::Channel<UpdateEvent>& update_feed() { return update_feed_; }

  uint64_t puts() const { return puts_; }
  uint64_t gets() const { return gets_; }
  size_t DocCount(const std::string& db) const;

 private:
  fwsim::Simulation& sim_;
  Filesystem& fs_;
  std::map<std::string, std::map<std::string, Document>> dbs_;
  fwsim::Channel<UpdateEvent> update_feed_;
  uint64_t puts_ = 0;
  uint64_t gets_ = 0;
};

}  // namespace fwstore

#endif  // FIREWORKS_SRC_STORAGE_DOCUMENT_DB_H_
