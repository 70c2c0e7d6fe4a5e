#include "vcgra/vcgra/dfg.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "vcgra/common/strings.hpp"

namespace vcgra::overlay {

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kParam: return "param";
    case OpKind::kMul: return "mul";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMac: return "mac";
    case OpKind::kPass: return "pass";
    case OpKind::kOutput: return "output";
  }
  return "?";
}

int Dfg::add_input(std::string name) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(DfgNode{OpKind::kInput, std::move(name), {}, 0.0, 0});
  inputs_.push_back(id);
  return id;
}

int Dfg::add_param(std::string name, double value) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(DfgNode{OpKind::kParam, std::move(name), {}, value, 0});
  return id;
}

int Dfg::add_op(OpKind kind, std::string name, std::vector<int> args, int count) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(DfgNode{kind, std::move(name), std::move(args), 0.0, count});
  return id;
}

int Dfg::add_output(std::string name, int arg) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(DfgNode{OpKind::kOutput, std::move(name), {arg}, 0.0, 0});
  outputs_.push_back(id);
  return id;
}

std::size_t Dfg::num_compute_nodes() const {
  std::size_t count = 0;
  for (const auto& node : nodes_) {
    if (node.kind != OpKind::kInput && node.kind != OpKind::kParam &&
        node.kind != OpKind::kOutput) {
      ++count;
    }
  }
  return count;
}

std::vector<int> Dfg::topo_order() const {
  std::vector<int> state(nodes_.size(), 0);
  std::vector<int> order;
  order.reserve(nodes_.size());
  std::vector<std::pair<int, std::size_t>> stack;
  for (int root = 0; root < static_cast<int>(nodes_.size()); ++root) {
    if (state[static_cast<std::size_t>(root)] == 2) continue;
    stack.emplace_back(root, 0);
    state[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto& args = nodes_[static_cast<std::size_t>(node)].args;
      if (next < args.size()) {
        const int child = args[next++];
        if (state[static_cast<std::size_t>(child)] == 1) {
          throw std::runtime_error("Dfg: cycle detected");
        }
        if (state[static_cast<std::size_t>(child)] == 0) {
          state[static_cast<std::size_t>(child)] = 1;
          stack.emplace_back(child, 0);
        }
      } else {
        state[static_cast<std::size_t>(node)] = 2;
        order.push_back(node);
        stack.pop_back();
      }
    }
  }
  return order;
}

int Dfg::find(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Dfg::validate() const {
  for (const auto& node : nodes_) {
    for (const int arg : node.args) {
      if (arg < 0 || arg >= static_cast<int>(nodes_.size())) {
        throw std::runtime_error("Dfg: dangling operand");
      }
    }
    switch (node.kind) {
      case OpKind::kMul:
      case OpKind::kAdd:
      case OpKind::kSub:
        if (node.args.size() != 2) throw std::runtime_error("Dfg: binary op arity");
        break;
      case OpKind::kMac:
        if (node.args.size() != 2 || node.count <= 0) {
          throw std::runtime_error("Dfg: mac needs (x, coeff) and count > 0");
        }
        break;
      case OpKind::kPass:
      case OpKind::kOutput:
        if (node.args.size() != 1) throw std::runtime_error("Dfg: unary op arity");
        break;
      case OpKind::kInput:
      case OpKind::kParam:
        if (!node.args.empty()) throw std::runtime_error("Dfg: source with operands");
        break;
    }
  }
  (void)topo_order();
}

const std::string& ParsedKernel::canonical_name(const std::string& real) const {
  const auto it = canonical_names.find(real);
  return it == canonical_names.end() ? real : it->second;
}

ParamBinding ParsedKernel::to_canonical(const ParamBinding& real) const {
  if (names_are_canonical) return real;
  ParamBinding canonical;
  for (const auto& [name, value] : real) {
    const auto it = canonical_names.find(name);
    if (it == canonical_names.end()) {
      throw std::invalid_argument("unknown kernel signal '" + name + "'");
    }
    canonical[it->second] = value;
  }
  return canonical;
}

ParseError::ParseError(int line, int column, const std::string& message)
    : std::invalid_argument(common::strprintf(
          "kernel parse error (line %d, col %d): %s", line, column,
          message.c_str())),
      line_(line),
      column_(column) {}

namespace {

[[noreturn]] void parse_fail(int line, int column, const std::string& message) {
  throw ParseError(line, column, message);
}

}  // namespace

ParsedKernel parse_kernel_symbolic(const std::string& text) {
  ParsedKernel parsed;
  Dfg& dfg = parsed.dfg;

  // Alpha-renaming: every signal gets a positional canonical name at its
  // definition (inputs x<i>, params c<i>, compute nodes t<i>). The
  // structural text and the canonical Dfg use only these names, so
  // isomorphic kernels that differ in signal spelling share one
  // structure key — and one place & route.
  int n_inputs = 0, n_params = 0, n_ops = 0;
  const auto canonize = [&](const std::string& name, OpKind kind) {
    std::string canonical;
    switch (kind) {
      case OpKind::kInput:
        canonical = common::strprintf("x%d", n_inputs++);
        break;
      case OpKind::kParam:
        canonical = common::strprintf("c%d", n_params++);
        break;
      default:
        canonical = common::strprintf("t%d", n_ops++);
        break;
    }
    if (canonical != name) parsed.names_are_canonical = false;
    parsed.canonical_names.emplace(name, canonical);
    return canonical;
  };

  const auto define = [&](const std::string& name, int line, int column) {
    if (name.empty()) parse_fail(line, column, "empty signal name");
    if (dfg.find(name) >= 0) {
      parse_fail(line, column, "redefinition of signal '" + name + "'");
    }
  };

  int line_number = 0;
  for (const std::string& raw_line : common::split(text, '\n')) {
    ++line_number;
    // Split statements on ';' by hand so each statement knows its 1-based
    // column in the source line (common::split drops that information).
    std::size_t cursor = 0;
    while (cursor <= raw_line.size()) {
      std::size_t semi = raw_line.find(';', cursor);
      if (semi == std::string::npos) semi = raw_line.size();
      const std::string_view raw_stmt =
          std::string_view(raw_line).substr(cursor, semi - cursor);
      std::size_t lead = 0;
      while (lead < raw_stmt.size() &&
             std::isspace(static_cast<unsigned char>(raw_stmt[lead]))) {
        ++lead;
      }
      const int column = static_cast<int>(cursor + lead) + 1;
      const std::string stmt(common::trim(raw_stmt));
      cursor = semi + 1;
      if (stmt.empty() || common::starts_with(stmt, "#")) continue;

      if (common::starts_with(stmt, "input ")) {
        const std::string name(common::trim(stmt.substr(6)));
        define(name, line_number, column);
        dfg.add_input(name);
        const std::string canonical = canonize(name, OpKind::kInput);
        parsed.canonical_dfg.add_input(canonical);
        parsed.structural_text += "input " + canonical + ";\n";
        continue;
      }
      if (common::starts_with(stmt, "output ")) {
        const std::string name(common::trim(stmt.substr(7)));
        const int src = dfg.find(name);
        if (src < 0) {
          parse_fail(line_number, column,
                     "output of unknown signal '" + name + "'");
        }
        dfg.add_output(name, src);
        // The output node inherits the canonical name of the signal it
        // exposes; RunResult translation back to the real name is the
        // runtime's job.
        const std::string& canonical = parsed.canonical_names.at(name);
        parsed.canonical_dfg.add_output(canonical, src);
        parsed.structural_text += "output " + canonical + ";\n";
        continue;
      }
      if (common::starts_with(stmt, "param ")) {
        // param NAME = VALUE; the value is hoisted into the symbolic
        // binding — the structural text deliberately omits it.
        const auto eq = stmt.find('=');
        if (eq == std::string::npos) {
          parse_fail(line_number, column, "param needs '= value'");
        }
        const std::string name(common::trim(stmt.substr(6, eq - 6)));
        define(name, line_number, column);
        const std::string value_text(common::trim(stmt.substr(eq + 1)));
        char* end = nullptr;
        const double value = std::strtod(value_text.c_str(), &end);
        if (end == value_text.c_str() ||
            !common::trim(std::string_view(end)).empty()) {
          parse_fail(line_number, column, "bad param value '" + value_text + "'");
        }
        dfg.add_param(name, value);
        parsed.params[name] = value;
        const std::string canonical = canonize(name, OpKind::kParam);
        parsed.canonical_dfg.add_param(canonical, value);
        parsed.structural_text += "param " + canonical + ";\n";
        continue;
      }

      // NAME = op(arg, arg[, count])
      const auto eq = stmt.find('=');
      if (eq == std::string::npos) {
        parse_fail(line_number, column, "expected assignment");
      }
      const std::string name(common::trim(stmt.substr(0, eq)));
      define(name, line_number, column);
      std::string rhs(common::trim(stmt.substr(eq + 1)));
      const auto open = rhs.find('(');
      const auto close = rhs.rfind(')');
      if (open == std::string::npos || close == std::string::npos || close < open) {
        parse_fail(line_number, column, "expected op(args)");
      }
      const std::string op(common::trim(rhs.substr(0, open)));
      const std::string arg_text = rhs.substr(open + 1, close - open - 1);
      std::vector<std::string> arg_names;
      for (const auto& piece : common::split(arg_text, ',')) {
        arg_names.emplace_back(common::trim(piece));
      }

      OpKind kind = OpKind::kPass;
      std::size_t arity = 1;
      if (op == "mul") {
        kind = OpKind::kMul;
        arity = 2;
      } else if (op == "add") {
        kind = OpKind::kAdd;
        arity = 2;
      } else if (op == "sub") {
        kind = OpKind::kSub;
        arity = 2;
      } else if (op == "mac") {
        kind = OpKind::kMac;
        arity = 3;  // (x, coeff, count)
      } else if (op == "pass") {
        kind = OpKind::kPass;
        arity = 1;
      } else {
        parse_fail(line_number, column, "unknown op '" + op + "'");
      }
      if (arg_names.size() != arity) {
        parse_fail(line_number, column, "op '" + op + "' arity mismatch");
      }

      std::vector<int> args;
      int count = 0;
      const std::size_t value_args = kind == OpKind::kMac ? 2 : arity;
      for (std::size_t i = 0; i < value_args; ++i) {
        const int src = dfg.find(arg_names[i]);
        if (src < 0) {
          parse_fail(line_number, column,
                     "unknown signal '" + arg_names[i] + "'");
        }
        args.push_back(src);
      }
      const std::string canonical_name = canonize(name, kind);
      std::string canonical = canonical_name + "=" + op + "(";
      for (std::size_t i = 0; i < value_args; ++i) {
        if (i) canonical += ",";
        canonical += parsed.canonical_names.at(arg_names[i]);
      }
      if (kind == OpKind::kMac) {
        // The whole token must be a decimal count that fits the PE's
        // counter: no trailing junk, no silent wrap of out-of-range values.
        const std::string& count_text = arg_names[2];
        char* end = nullptr;
        errno = 0;
        const long long value = std::strtoll(count_text.c_str(), &end, 10);
        if (end == count_text.c_str() || *end != '\0' || errno == ERANGE ||
            value <= 0 || value > std::numeric_limits<int>::max()) {
          parse_fail(line_number, column, "mac count must be a positive integer");
        }
        count = static_cast<int>(value);
        // The accumulation length is structural (it configures the PE's
        // iteration counter, not a coefficient), so it stays in the text.
        canonical += common::strprintf(",%d", count);
      }
      parsed.structural_text += canonical + ");\n";
      parsed.canonical_dfg.add_op(kind, canonical_name, args, count);
      dfg.add_op(kind, name, std::move(args), count);
    }
  }
  dfg.validate();
  parsed.canonical_dfg.validate();
  return parsed;
}

Dfg parse_kernel(const std::string& text) {
  return parse_kernel_symbolic(text).dfg;
}

Dfg make_dot_product_kernel(const std::vector<double>& coefficients) {
  Dfg dfg;
  std::vector<int> products;
  for (std::size_t i = 0; i < coefficients.size(); ++i) {
    const int x = dfg.add_input(common::strprintf("x%zu", i));
    const int c = dfg.add_param(common::strprintf("c%zu", i), coefficients[i]);
    products.push_back(
        dfg.add_op(OpKind::kMul, common::strprintf("p%zu", i), {x, c}));
  }
  // Balanced adder tree.
  int level = 0;
  while (products.size() > 1) {
    std::vector<int> next;
    for (std::size_t i = 0; i + 1 < products.size(); i += 2) {
      next.push_back(dfg.add_op(OpKind::kAdd,
                                common::strprintf("s%d_%zu", level, i / 2),
                                {products[i], products[i + 1]}));
    }
    if (products.size() % 2) next.push_back(products.back());
    products = std::move(next);
    ++level;
  }
  if (!products.empty()) dfg.add_output("y", products[0]);
  dfg.validate();
  return dfg;
}

std::string dot_tree_text(const std::vector<double>& coefficients) {
  if (coefficients.empty()) {
    throw std::invalid_argument("dot_tree_text: no coefficients");
  }
  std::string text;
  for (std::size_t i = 0; i < coefficients.size(); ++i) {
    text += common::strprintf("input x%zu; param c%zu = %.17g;\n", i, i,
                              coefficients[i]);
    text += common::strprintf("p%zu = mul(x%zu, c%zu);\n", i, i, i);
  }
  if (coefficients.size() == 1) {
    text += "y = pass(p0);\noutput y;\n";
    return text;
  }
  std::vector<std::string> terms;
  for (std::size_t i = 0; i < coefficients.size(); ++i) {
    terms.push_back(common::strprintf("p%zu", i));
  }
  int level = 0;
  while (terms.size() > 1) {
    std::vector<std::string> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      std::string name = terms.size() == 2
                             ? std::string("y")
                             : common::strprintf("s%d_%zu", level, i / 2);
      text += common::strprintf("%s = add(%s, %s);\n", name.c_str(),
                                terms[i].c_str(), terms[i + 1].c_str());
      next.push_back(std::move(name));
    }
    if (terms.size() % 2) next.push_back(terms.back());
    terms = std::move(next);
    ++level;
  }
  text += "output y;\n";
  return text;
}

std::string chain_add_text(int streams) {
  if (streams <= 0) {
    throw std::invalid_argument("chain_add_text: streams must be positive");
  }
  std::string text;
  for (int i = 0; i < streams; ++i) {
    text += common::strprintf("input x%d;\n", i);
  }
  if (streams == 1) {
    text += "y = pass(x0);\noutput y;\n";
    return text;
  }
  std::string prev = "x0";
  for (int i = 1; i < streams; ++i) {
    std::string name =
        i == streams - 1 ? std::string("y") : common::strprintf("s%d", i);
    text += common::strprintf("%s = add(%s, x%d);\n", name.c_str(),
                              prev.c_str(), i);
    prev = std::move(name);
  }
  text += "output y;\n";
  return text;
}

Dfg make_streaming_mac_kernel(double coefficient, int taps) {
  Dfg dfg;
  const int x = dfg.add_input("x");
  const int c = dfg.add_param("c", coefficient);
  const int mac = dfg.add_op(OpKind::kMac, "acc", {x, c}, taps);
  dfg.add_output("y", mac);
  dfg.validate();
  return dfg;
}

}  // namespace vcgra::overlay
