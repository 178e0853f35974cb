#ifndef SPHERE_NET_REMOTE_H_
#define SPHERE_NET_REMOTE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/storage_node.h"
#include "net/latency.h"
#include "net/packet.h"

namespace sphere::net {

/// Dispatches one decoded request on a server-side session and returns the
/// encoded response. Shared by RemoteConnection (driver side) and the proxy
/// frontend.
std::string ServeRequest(engine::StorageNode::Session* session,
                         const DecodedRequest& request);

/// One client connection to a storage node over the simulated network.
///
/// Every call pays the transfer latency of its encoded protocol packets both
/// ways — the cost structure of a real driver talking to a real database
/// server. Queries charge encoder-size mirrors instead of building the bytes
/// (only unmaterialized cursors are really encoded and decoded); commands
/// are encoded, served and decoded. This is what the embedded (JDBC-like)
/// adaptor holds in its pools; the proxy holds these on its backend side.
class RemoteConnection {
 public:
  RemoteConnection(engine::StorageNode* node, const LatencyModel* network)
      : node_(node), network_(network), session_(node->OpenSession()) {}

  engine::StorageNode* node() { return node_; }

  /// Executes one SQL statement with bound parameters.
  Result<engine::ExecResult> Execute(std::string_view sql_text,
                                     const std::vector<Value>& params = {});

  /// Structured DML path (DESIGN.md §10): executes an already-rewritten
  /// statement on the node session directly — no text building, no request
  /// string encode/decode, no server-side parse. The latency model still
  /// charges a binary prepared-execute request (header + statement handle +
  /// bound parameters) and the OK/error response, so the wire cost of the
  /// paper's network model is preserved; only the per-execution CPU work
  /// disappears. Intended for DML units (fixed-size OK responses).
  Result<engine::ExecResult> ExecuteStructured(const sql::Statement& stmt,
                                               const std::vector<Value>& params);

  /// Transaction verbs (each one protocol round trip).
  Status Begin(const std::string& xid = "");
  Status Commit();
  Status Rollback();
  /// XA phase 1 on this connection's open transaction.
  Status PrepareXa();
  /// XA phase 2, addressed by global xid.
  Status CommitPrepared(const std::string& xid);
  Status RollbackPrepared(const std::string& xid);

  bool in_transaction() const { return session_->in_transaction(); }

 private:
  /// Round trip: transfer request, serve, transfer response.
  Result<engine::ExecResult> Call(const std::string& request);
  Status CallStatus(const std::string& request);

  engine::StorageNode* node_;
  const LatencyModel* network_;
  std::unique_ptr<engine::StorageNode::Session> session_;
};

}  // namespace sphere::net

#endif  // SPHERE_NET_REMOTE_H_
