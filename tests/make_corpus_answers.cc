// Regenerates tests/data/corpus_answers.txt, the answer of every query in
// the shared corpora (query_corpora.h) on a serial heap-backend executor:
//
//   make_corpus_answers <output-dir>
//
// The corpus golden test holds every configuration of the engine to these
// bytes. Regenerate them only for a deliberate, reviewed change of answer.

#include <fstream>
#include <iostream>
#include <string>

#include "query_corpora.h"
#include "sparql/executor.h"
#include "sparql/parser.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_corpus_answers <output-dir>\n";
    return 2;
  }
  std::string out;
  for (const rdfa::test::QueryCorpus& corpus : rdfa::test::QueryCorpora()) {
    rdfa::rdf::Graph graph;
    corpus.build(&graph);
    for (size_t i = 0; i < corpus.queries.size(); ++i) {
      const std::string& q = corpus.queries[i];
      std::string answer;
      auto parsed = rdfa::sparql::ParseQuery(q);
      if (!parsed.ok()) {
        answer = "!" + parsed.status().ToString();
      } else {
        rdfa::sparql::Executor exec(&graph);
        auto result = exec.Execute(parsed.value());
        answer = result.ok() ? result.value().ToTsv()
                             : "!" + result.status().ToString();
      }
      out += rdfa::test::AnswerRecord(
          corpus.name + "#" + std::to_string(i), q, answer);
    }
  }
  const std::string path = std::string(argv[1]) + "/corpus_answers.txt";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!f.good()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << " (" << out.size() << " bytes)\n";
  return 0;
}
