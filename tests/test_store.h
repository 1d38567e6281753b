#ifndef RDFA_TESTS_TEST_STORE_H_
#define RDFA_TESTS_TEST_STORE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "rdf/graph.h"
#include "rdf/mvcc.h"
#include "sparql/executor.h"
#include "sparql/parser.h"

namespace rdfa::test {

/// An in-memory MvccGraph over a fresh graph filled by `build` (e.g.
/// workload::BuildInvoicesExample), with SPARQL UPDATE wired as its update
/// function: the store a SimulatedEndpoint serves.
template <typename Build>
std::unique_ptr<rdf::MvccGraph> SparqlStore(Build&& build) {
  auto base = std::make_shared<rdf::Graph>();
  build(base.get());
  rdf::MvccGraph::Options opts;
  opts.update_fn = sparql::ApplyUpdate;
  return std::make_unique<rdf::MvccGraph>(std::move(base), std::move(opts));
}

/// Commits one SPARQL update as the next epoch. Commit skips a record that
/// fails to apply, so the text is parsed first: a malformed update fails
/// here, as it would through sparql::ExecuteUpdateString.
inline Status CommitUpdate(rdf::MvccGraph* store, const std::string& update) {
  RDFA_RETURN_NOT_OK(sparql::ParseUpdate(update).status());
  RDFA_RETURN_NOT_OK(store->BufferUpdate(update));
  return store->Commit().status();
}

}  // namespace rdfa::test

#endif  // RDFA_TESTS_TEST_STORE_H_
