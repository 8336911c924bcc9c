// Dense app ids for the cluster request path (DESIGN.md §10).
//
// The front end interns every app name once — at InstallAll and at Submit —
// and from then on carries a small integer through dispatch, the warm-pool
// autoscaler, the retry budget, the SLO monitor and the snapshot
// distribution tier, so every per-request table is a vector index instead of
// a string-keyed tree lookup. Ids are assigned in first-intern order and
// never reused; nothing iterates in id order, so the assignment cannot leak
// into any digest.
#ifndef FIREWORKS_SRC_CLUSTER_APP_TABLE_H_
#define FIREWORKS_SRC_CLUSTER_APP_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace fwcluster {

using AppId = uint32_t;

class AppTable {
 public:
  // Find-or-add. A hit allocates nothing (unordered_map::emplace would build
  // a node even when the key exists).
  AppId Intern(const std::string& name) {
    auto it = by_name_.find(name);
    if (it != by_name_.end()) {
      return it->second;
    }
    const AppId id = static_cast<AppId>(names_.size());
    names_.push_back(std::make_unique<const std::string>(name));
    by_name_.try_emplace(name, id);
    return id;
  }

  // Stays valid for the table's lifetime: names are boxed, so later interns
  // never move them. Hosts hold this reference across suspensions.
  const std::string& name(AppId id) const { return *names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, AppId> by_name_;
  std::vector<std::unique_ptr<const std::string>> names_;
};

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_APP_TABLE_H_
