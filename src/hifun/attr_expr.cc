#include "hifun/attr_expr.h"

namespace rdfa::hifun {

AttrExprPtr AttrExpr::Identity() {
  auto e = std::make_shared<AttrExpr>();
  e->kind = Kind::kIdentity;
  return e;
}

AttrExprPtr AttrExpr::Property(std::string iri) {
  auto e = std::make_shared<AttrExpr>();
  e->kind = Kind::kProperty;
  e->property = std::move(iri);
  return e;
}

AttrExprPtr AttrExpr::Compose(std::vector<AttrExprPtr> in_application_order) {
  if (in_application_order.size() == 1) return in_application_order[0];
  auto e = std::make_shared<AttrExpr>();
  e->kind = Kind::kCompose;
  e->args = std::move(in_application_order);
  return e;
}

AttrExprPtr AttrExpr::Pair(std::vector<AttrExprPtr> components) {
  if (components.size() == 1) return components[0];
  auto e = std::make_shared<AttrExpr>();
  e->kind = Kind::kPair;
  e->args = std::move(components);
  return e;
}

AttrExprPtr AttrExpr::Derived(std::string function, AttrExprPtr arg) {
  auto e = std::make_shared<AttrExpr>();
  e->kind = Kind::kDerived;
  e->function = std::move(function);
  e->args.push_back(std::move(arg));
  return e;
}

namespace {
std::string LocalName(const std::string& iri) {
  size_t pos = iri.find_last_of("#/");
  return pos == std::string::npos ? iri : iri.substr(pos + 1);
}
}  // namespace

std::string AttrExpr::ToString() const {
  switch (kind) {
    case Kind::kIdentity:
      return "ID";
    case Kind::kProperty:
      return LocalName(property);
    case Kind::kCompose: {
      // Paper order: outermost first (f_k ∘ … ∘ f_1).
      std::string out;
      for (size_t i = args.size(); i-- > 0;) {
        if (!out.empty()) out += " o ";
        out += args[i]->ToString();
      }
      return out;
    }
    case Kind::kPair: {
      std::string out = "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += " x ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kDerived:
      return function + "(" + args[0]->ToString() + ")";
  }
  return "";
}

std::string Restriction::ToString() const {
  std::string out;
  for (const std::string& p : path) {
    if (!out.empty()) out += ".";
    out += LocalName(p);
  }
  if (!derived_function.empty()) {
    out = derived_function + "(" + out + ")";
  }
  if (!out.empty()) out += " ";
  out += op + " " + value.ToNTriples();
  if (upper.has_value()) out += " <= " + upper->ToNTriples();
  return out;
}

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum: return "SUM";
    case AggOp::kAvg: return "AVG";
    case AggOp::kCount: return "COUNT";
    case AggOp::kMin: return "MIN";
    case AggOp::kMax: return "MAX";
  }
  return "SUM";
}

}  // namespace rdfa::hifun
