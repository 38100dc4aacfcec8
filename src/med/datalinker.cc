#include "med/datalinker.h"

namespace easia::med {

Status DataLinker::PrepareLink(uint64_t txn_id,
                               const db::DatalinkOptions& options,
                               const std::string& path) {
  if (options.file_link_control && !server_->storage().Exists(path)) {
    return Status::NotFound("datalink: file does not exist on " + host() +
                            ": " + path);
  }
  auto it = links_.find(path);
  if (it != links_.end()) {
    // Re-linking after a pending unlink by the same transaction is allowed
    // (UPDATE that swaps a value back); everything else conflicts.
    if (it->second.state == LinkEntry::State::kUnlinkPending &&
        it->second.txn_id == txn_id) {
      it->second.state = LinkEntry::State::kLinked;
      DropPending(txn_id, path);
      return Status::OK();
    }
    return Status::AlreadyExists("datalink: file already linked: " + path);
  }
  LinkEntry entry;
  entry.state = LinkEntry::State::kLinkPending;
  entry.txn_id = txn_id;
  entry.options = options;
  links_[path] = entry;
  pending_[txn_id].insert(path);
  return Status::OK();
}

Status DataLinker::PrepareUnlink(uint64_t txn_id,
                                 const db::DatalinkOptions& options,
                                 const std::string& path) {
  (void)options;
  auto it = links_.find(path);
  if (it == links_.end()) {
    return Status::NotFound("datalink: file is not linked: " + path);
  }
  if (it->second.state == LinkEntry::State::kLinkPending &&
      it->second.txn_id == txn_id) {
    // Link and unlink inside one transaction cancel out.
    links_.erase(it);
    DropPending(txn_id, path);
    return Status::OK();
  }
  if (it->second.state != LinkEntry::State::kLinked) {
    return Status::FailedPrecondition(
        "datalink: file has a pending change from another transaction: " +
        path);
  }
  it->second.state = LinkEntry::State::kUnlinkPending;
  it->second.txn_id = txn_id;
  pending_[txn_id].insert(path);
  return Status::OK();
}

void DataLinker::DropPending(uint64_t txn_id, const std::string& path) {
  auto it = pending_.find(txn_id);
  if (it == pending_.end()) return;
  it->second.erase(path);
  if (it->second.empty()) pending_.erase(it);
}

void DataLinker::CommitTxn(uint64_t txn_id) {
  auto pending = pending_.extract(txn_id);
  if (pending.empty()) return;
  for (const std::string& path : pending.mapped()) {
    auto it = links_.find(path);
    if (it == links_.end()) continue;
    LinkEntry& entry = it->second;
    switch (entry.state) {
      case LinkEntry::State::kLinkPending:
        entry.state = LinkEntry::State::kLinked;
        if (entry.options.file_link_control) {
          (void)server_->storage().Pin(path);
        }
        break;
      case LinkEntry::State::kUnlinkPending:
        if (entry.options.file_link_control) {
          (void)server_->storage().Unpin(path);
        }
        if (entry.options.on_unlink ==
            db::DatalinkOptions::OnUnlink::kDelete) {
          (void)server_->storage().DeleteFile(path);
        }
        links_.erase(it);
        break;
      case LinkEntry::State::kLinked:
        break;
    }
  }
}

void DataLinker::AbortTxn(uint64_t txn_id) {
  auto pending = pending_.extract(txn_id);
  if (pending.empty()) return;
  for (const std::string& path : pending.mapped()) {
    auto it = links_.find(path);
    if (it == links_.end()) continue;
    switch (it->second.state) {
      case LinkEntry::State::kLinkPending:
        links_.erase(it);
        break;
      case LinkEntry::State::kUnlinkPending:
        it->second.state = LinkEntry::State::kLinked;
        break;
      case LinkEntry::State::kLinked:
        break;
    }
  }
}

bool DataLinker::IsLinked(const std::string& path) const {
  auto it = links_.find(path);
  return it != links_.end() && it->second.state == LinkEntry::State::kLinked;
}

Result<db::DatalinkOptions> DataLinker::LinkedOptions(
    const std::string& path) const {
  auto it = links_.find(path);
  if (it == links_.end() ||
      it->second.state == LinkEntry::State::kLinkPending) {
    return Status::NotFound("datalink: file is not linked: " + path);
  }
  return it->second.options;
}

void DataLinker::ForgetLink(const std::string& path) {
  auto it = links_.find(path);
  if (it == links_.end()) return;
  if (it->second.options.file_link_control) {
    (void)server_->storage().Unpin(path);  // no-op when the file is gone
  }
  if (it->second.state != LinkEntry::State::kLinked) {
    DropPending(it->second.txn_id, path);
  }
  links_.erase(it);
}

std::vector<std::string> DataLinker::LinkedPaths() const {
  std::vector<std::string> out;
  for (const auto& [path, entry] : links_) {
    if (entry.state != LinkEntry::State::kLinkPending) out.push_back(path);
  }
  return out;
}

size_t DataLinker::PendingCount() const {
  size_t n = 0;
  for (const auto& [txn_id, paths] : pending_) n += paths.size();
  return n;
}

Status DataLinker::CheckRead(
    const std::string& path, const std::string& token,
    const std::function<Status(const std::string& token,
                               const std::string& path)>& validate) const {
  auto it = links_.find(path);
  if (it == links_.end() || it->second.state != LinkEntry::State::kLinked) {
    return Status::OK();  // not under database control
  }
  const db::DatalinkOptions& options = it->second.options;
  if (options.read_permission != db::DatalinkOptions::ReadPermission::kDb) {
    return Status::OK();  // READ PERMISSION FS: file-system rules apply
  }
  if (token.empty()) {
    return Status::PermissionDenied(
        "file requires a database access token: " + path);
  }
  return validate(token, path);
}

}  // namespace easia::med
