// Every query of the shared corpora (query_corpora.h) must answer exactly
// the checked-in bytes of tests/data/corpus_answers.txt, serially and at
// four threads, on the heap and the mapped backends. The goldens are the
// engine's answers before the row layout was rewritten, so they hold the
// join, filter, group and projection code to a reference none of those
// paths produced.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "query_corpora.h"
#include "rdf/binary_io.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "test_paths.h"

#ifndef RDFA_TEST_DATA_DIR
#error "RDFA_TEST_DATA_DIR must point at the checked-in fixture directory"
#endif

namespace rdfa {
namespace {

std::string Answer(rdf::Graph* g, const std::string& q, int threads) {
  auto parsed = sparql::ParseQuery(q);
  if (!parsed.ok()) return "!" + parsed.status().ToString();
  sparql::Executor exec(g, /*reorder_joins=*/true, /*push_filters=*/true,
                        threads);
  auto result = exec.Execute(parsed.value());
  return result.ok() ? result.value().ToTsv()
                     : "!" + result.status().ToString();
}

TEST(CorpusGoldenTest, AnswersMatchTheCheckedInBytes) {
  std::ifstream f(std::string(RDFA_TEST_DATA_DIR) + "/corpus_answers.txt",
                  std::ios::binary);
  ASSERT_TRUE(f.good());
  std::stringstream text;
  text << f.rdbuf();
  std::map<std::string, std::pair<std::string, std::string>> golden;
  ASSERT_TRUE(test::ParseAnswerRecords(text.str(), &golden));

  size_t checked = 0;
  for (const test::QueryCorpus& corpus : test::QueryCorpora()) {
    auto heap = std::make_unique<rdf::Graph>();
    corpus.build(heap.get());
    const std::string path = test::UniqueTempPath(corpus.name + ".rdfa");
    ASSERT_TRUE(rdf::SaveBinaryFile(*heap, path).ok());
    auto mapped = rdf::OpenMappedSnapshot(path);
    std::remove(path.c_str());  // the mapping outlives the directory entry
    ASSERT_TRUE(mapped.ok()) << mapped.status().message();
    for (size_t i = 0; i < corpus.queries.size(); ++i) {
      const std::string key = corpus.name + "#" + std::to_string(i);
      auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << key;
      const auto& [query, answer] = it->second;
      EXPECT_EQ(corpus.queries[i], query) << key;
      for (rdf::Graph* g : {heap.get(), mapped.value().get()}) {
        for (int threads : {1, 4}) {
          EXPECT_EQ(Answer(g, query, threads), answer)
              << key << (g == heap.get() ? " heap" : " mapped")
              << " threads=" << threads << "\n" << query;
        }
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, golden.size());
}

}  // namespace
}  // namespace rdfa
