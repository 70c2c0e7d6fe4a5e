#include <gtest/gtest.h>

#include <cmath>

#include "vcgra/vcgra/arch.hpp"
#include "vcgra/vcgra/backend.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/simulator.hpp"

namespace ov = vcgra::overlay;
namespace sf = vcgra::softfloat;

TEST(OverlayArch, Table2Accounting) {
  ov::OverlayArch arch;
  arch.rows = 4;
  arch.cols = 4;
  EXPECT_EQ(arch.num_pes(), 16);
  EXPECT_EQ(arch.num_vsbs(), 9);
  EXPECT_EQ(arch.num_vcbs(), 32);
  EXPECT_EQ(arch.num_settings_registers(), 25);
  // Table II, conventional row: 41 routing-switch groups, 25 registers.
  const auto conventional = ov::conventional_overlay_cost(arch);
  EXPECT_EQ(conventional.routing_switch_groups, 41u);
  EXPECT_EQ(conventional.settings_registers, 25u);
  EXPECT_EQ(conventional.settings_ff_bits, 25u * 32u);
  EXPECT_GT(conventional.mux_luts, 0u);
  // Table II, fully parameterized row: zero / zero.
  const auto parameterized = ov::parameterized_overlay_cost(arch);
  EXPECT_EQ(parameterized.routing_switch_groups, 0u);
  EXPECT_EQ(parameterized.settings_registers, 0u);
  EXPECT_EQ(parameterized.mux_luts, 0u);
  EXPECT_EQ(parameterized.config_mem_bits, 25u * 32u);
}

TEST(Dfg, ParseKernelRoundTrip) {
  const ov::Dfg dfg = ov::parse_kernel(R"(
    input x0; input x1;
    param c0 = 0.5; param c1 = -1.25;
    t0 = mul(x0, c0);
    t1 = mul(x1, c1);
    y = add(t0, t1);
    output y;
  )");
  EXPECT_EQ(dfg.inputs().size(), 2u);
  EXPECT_EQ(dfg.outputs().size(), 1u);
  EXPECT_EQ(dfg.num_compute_nodes(), 3u);
  EXPECT_GE(dfg.find("t0"), 0);
  EXPECT_EQ(dfg.find("nonexistent"), -1);
}

TEST(Dfg, ParseErrorsAreDiagnosed) {
  EXPECT_THROW(ov::parse_kernel("y = mul(a, b);"), std::invalid_argument);
  EXPECT_THROW(ov::parse_kernel("input x; y = frob(x);"), std::invalid_argument);
  EXPECT_THROW(ov::parse_kernel("param p;"), std::invalid_argument);
  EXPECT_THROW(ov::parse_kernel("input x; param c = 1; y = mac(x, c, 0);"),
               std::invalid_argument);
  // MAC counts parse strictly: no wrap past int, no trailing junk.
  for (const char* count : {"99999999999", "4294967297", "3x"}) {
    const std::string text =
        std::string("input x; param c = 1; y = mac(x, c, ") + count + ");";
    EXPECT_THROW(ov::parse_kernel(text), std::invalid_argument) << count;
  }
  EXPECT_THROW(ov::parse_kernel("output nothing;"), std::invalid_argument);
}

TEST(Dfg, ParseErrorsCarryLineAndColumn) {
  const auto expect_at = [](const std::string& text, int line, int column) {
    try {
      ov::parse_kernel(text);
      FAIL() << "expected ParseError for: " << text;
    } catch (const ov::ParseError& error) {
      EXPECT_EQ(error.line(), line) << text;
      EXPECT_EQ(error.column(), column) << text;
      // The rendered message carries the position too.
      EXPECT_NE(std::string(error.what()).find("line"), std::string::npos);
    }
  };
  // Unknown signal on line 2.
  expect_at("input x;\ny = mul(x, ghost);\noutput y;\n", 2, 1);
  // Second statement of line 1: column points past the first statement.
  expect_at("input x; y = frob(x);", 1, 10);
  // Bad param value, statement indented.
  expect_at("input x;\n  param c = banana;\n", 2, 3);
  // mac count must be positive (line 3).
  expect_at("input x;\nparam c = 1;\ny = mac(x, c, -2);\n", 3, 1);
  // Missing assignment.
  expect_at("input x;\nnonsense\n", 2, 1);
}

TEST(Dfg, ParseRejectsMalformedKernels) {
  // Redefinitions (silent shadowing would corrupt the param binding).
  EXPECT_THROW(ov::parse_kernel("input x; input x;"), ov::ParseError);
  EXPECT_THROW(ov::parse_kernel("input x; param x = 1;"), ov::ParseError);
  EXPECT_THROW(ov::parse_kernel("param c = 1; param c = 2;"), ov::ParseError);
  EXPECT_THROW(
      ov::parse_kernel("input x; param c = 1; y = mul(x, c); y = pass(x);"),
      ov::ParseError);
  // Trailing garbage after a param value.
  EXPECT_THROW(ov::parse_kernel("param c = 1.5 oops;"), ov::ParseError);
  // Arity violations and malformed operator syntax.
  EXPECT_THROW(ov::parse_kernel("input x; y = add(x);"), ov::ParseError);
  EXPECT_THROW(ov::parse_kernel("input x; y = pass x;"), ov::ParseError);
  EXPECT_THROW(ov::parse_kernel("input x; y = pass(x; output y;"),
               ov::ParseError);
  EXPECT_THROW(ov::parse_kernel("input x; = pass(x);"), ov::ParseError);
}

TEST(Dfg, SymbolicParseHoistsParamsAndCanonicalizes) {
  const ov::ParsedKernel parsed = ov::parse_kernel_symbolic(
      "# comment\n"
      "input x0;  input x1;\n"
      "param c0 = 0.5;\nparam c1 = -1.25;\n"
      "t0 = mul( x0 , c0 );\nt1 = mul(x1, c1);\n"
      "y = add(t0, t1);\noutput y;\n");
  EXPECT_EQ(parsed.params.size(), 2u);
  EXPECT_EQ(parsed.params.at("c0"), 0.5);
  EXPECT_EQ(parsed.params.at("c1"), -1.25);
  // Canonical text drops values, comments and whitespace, and
  // alpha-renames every signal positionally (the adder 'y' is compute
  // node t2, and the output statement exposes it by canonical name).
  EXPECT_EQ(parsed.structural_text,
            "input x0;\ninput x1;\nparam c0;\nparam c1;\n"
            "t0=mul(x0,c0);\nt1=mul(x1,c1);\nt2=add(t0,t1);\noutput t2;\n");
  EXPECT_FALSE(parsed.names_are_canonical);  // 'y' is not canonical
  EXPECT_EQ(parsed.canonical_name("y"), "t2");
  EXPECT_EQ(parsed.canonical_name("x0"), "x0");
  // Value and formatting changes leave the structural text untouched.
  const ov::ParsedKernel other = ov::parse_kernel_symbolic(
      "input x0;input x1;param c0=7;param c1=9;"
      "t0=mul(x0,c0);t1=mul(x1,c1);y=add(t0,t1);output y;");
  EXPECT_EQ(parsed.structural_text, other.structural_text);
  EXPECT_NE(ov::param_signature(parsed.params),
            ov::param_signature(other.params));
  // Alpha renaming: an isomorphic kernel under completely different
  // signal names canonicalizes to the same structural text, and its
  // params translate onto the same canonical slots.
  const ov::ParsedKernel renamed = ov::parse_kernel_symbolic(
      "input left; input right;\n"
      "param gain = 0.5; param bias = -1.25;\n"
      "a = mul(left, gain); b = mul(right, bias);\n"
      "sum = add(a, b);\noutput sum;\n");
  EXPECT_EQ(parsed.structural_text, renamed.structural_text);
  EXPECT_EQ(renamed.to_canonical(renamed.params),
            parsed.to_canonical(parsed.params));
  EXPECT_THROW(renamed.to_canonical({{"not_a_signal", 1.0}}),
               std::invalid_argument);
  // The canonical DFG is a true isomorph: same node count and topology.
  EXPECT_EQ(parsed.dfg.nodes().size(), parsed.canonical_dfg.nodes().size());
}

TEST(Params, SignatureAndMergeSemantics) {
  // Bit-level discrimination: -0.0 and 0.0 differ.
  EXPECT_NE(ov::param_signature({{"c", 0.0}}),
            ov::param_signature({{"c", -0.0}}));
  EXPECT_EQ(ov::param_signature({{"a", 1.0}, {"b", 2.0}}),
            ov::param_signature({{"b", 2.0}, {"a", 1.0}}));  // order-free (map)
  const ov::ParamBinding merged =
      ov::merge_params({{"a", 1.0}, {"b", 2.0}}, {{"b", 5.0}});
  EXPECT_EQ(merged.at("a"), 1.0);
  EXPECT_EQ(merged.at("b"), 5.0);
  EXPECT_THROW(ov::merge_params({{"a", 1.0}}, {{"typo", 2.0}}),
               std::invalid_argument);
}

TEST(Compiler, SpecializeMatchesFromScratchCompileBitExactly) {
  const std::string text =
      "input x0; input x1;\n"
      "param c0 = 0.5; param c1 = -1.25;\n"
      "t0 = mul(x0, c0); t1 = mul(x1, c1);\n"
      "y = add(t0, t1);\noutput y;\n";
  ov::OverlayArch arch;
  const ov::ParsedKernel parsed = ov::parse_kernel_symbolic(text);
  const ov::CompiledStructure structure =
      ov::compile_structure(parsed.dfg, arch, 1);
  EXPECT_EQ(structure.param_slots.size(), 2u);
  // The skeleton holds no coefficient bits: the structure really is
  // value-free.
  for (const auto& pe : structure.settings.pes) {
    EXPECT_EQ(pe.coeff_bits, 0u);
  }

  // Defaults: identical to the one-shot compile.
  const ov::Compiled whole = ov::compile_kernel(text, arch, 1);
  const ov::Compiled defaulted = ov::specialize(structure);
  EXPECT_EQ(defaulted.settings.register_words(arch),
            whole.settings.register_words(arch));

  // New coefficients: identical to a from-scratch compile of the
  // rewritten kernel (same structure -> same placement under one seed).
  const ov::Compiled respec =
      ov::specialize(structure, {{"c0", 0.9}, {"c1", 123.0}});
  const ov::Compiled scratch = ov::compile_kernel(
      "input x0; input x1;\n"
      "param c0 = 0.9; param c1 = 123.0;\n"
      "t0 = mul(x0, c0); t1 = mul(x1, c1);\n"
      "y = add(t0, t1);\noutput y;\n",
      arch, 1);
  EXPECT_EQ(respec.settings.register_words(arch),
            scratch.settings.register_words(arch));

  EXPECT_THROW(ov::specialize(structure, {{"cX", 1.0}}), std::invalid_argument);
}

TEST(Dfg, MacParsing) {
  const ov::Dfg dfg = ov::parse_kernel(
      "input x; param c = 0.25; acc = mac(x, c, 25); output acc;");
  const int mac = dfg.find("acc");
  ASSERT_GE(mac, 0);
  EXPECT_EQ(dfg.nodes()[static_cast<std::size_t>(mac)].count, 25);
}

TEST(Dfg, BuildersValidate) {
  const ov::Dfg dot = ov::make_dot_product_kernel({0.25, -0.5, 1.0, 2.0});
  EXPECT_EQ(dot.inputs().size(), 4u);
  EXPECT_EQ(dot.num_compute_nodes(), 4u + 3u);  // 4 muls + 3 adds
  const ov::Dfg mac = ov::make_streaming_mac_kernel(0.125, 81);
  EXPECT_EQ(mac.num_compute_nodes(), 1u);
}

TEST(Compiler, FitsAndPlacesDotProduct) {
  const ov::Dfg dfg = ov::make_dot_product_kernel({0.5, 0.25, -0.75, 1.5});
  ov::OverlayArch arch;
  arch.rows = 4;
  arch.cols = 4;
  const ov::Compiled compiled = ov::compile(dfg, arch);
  EXPECT_EQ(compiled.report.pes_used, 7);
  int used = 0;
  for (const auto& pe : compiled.settings.pes) used += pe.used ? 1 : 0;
  EXPECT_EQ(used, 7);
  EXPECT_GT(compiled.report.total_hops, 0);
  EXPECT_GT(compiled.settings.register_words(arch).size(),
            static_cast<std::size_t>(arch.num_pes()));
}

TEST(Compiler, RejectsOversizedDesigns) {
  const ov::Dfg dfg = ov::make_dot_product_kernel(std::vector<double>(40, 1.0));
  ov::OverlayArch arch;
  arch.rows = 2;
  arch.cols = 2;
  EXPECT_THROW(ov::compile(dfg, arch), std::invalid_argument);
}

TEST(Compiler, RejectsUnsupportedOps) {
  ov::OverlayArch arch;
  arch.pe.mul = false;
  const ov::Dfg dfg = ov::parse_kernel(
      "input x; param c = 1.0; y = mul(x, c); output y;");
  EXPECT_THROW(ov::compile(dfg, arch), std::invalid_argument);
}

TEST(Simulator, DotProductMatchesReference) {
  const std::vector<double> coeffs{0.5, 0.25, -0.75, 1.5};
  const ov::Dfg dfg = ov::make_dot_product_kernel(coeffs);
  ov::OverlayArch arch;
  const ov::Compiled compiled = ov::compile(dfg, arch);
  const ov::Simulator simulator(compiled);

  std::map<std::string, std::vector<double>> inputs;
  const int samples = 16;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    std::vector<double> stream;
    for (int s = 0; s < samples; ++s) {
      stream.push_back(0.125 * static_cast<double>(s + 1) *
                       (i % 2 == 0 ? 1.0 : -1.0));
    }
    inputs["x" + std::to_string(i)] = stream;
  }
  const ov::RunResult result = simulator.run_doubles(inputs);
  ASSERT_EQ(result.outputs.count("y"), 1u);
  const auto& y = result.outputs.at("y");
  ASSERT_EQ(y.size(), static_cast<std::size_t>(samples));

  // Reference with the same rounded arithmetic order (balanced tree).
  const sf::FpFormat format = arch.format;
  for (int s = 0; s < samples; ++s) {
    std::vector<sf::FpValue> terms;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      terms.push_back(sf::fp_mul(
          sf::FpValue::from_double(format, inputs["x" + std::to_string(i)][static_cast<std::size_t>(s)]),
          sf::FpValue::from_double(format, coeffs[i])));
    }
    while (terms.size() > 1) {
      std::vector<sf::FpValue> next;
      for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
        next.push_back(sf::fp_add(terms[i], terms[i + 1]));
      }
      if (terms.size() % 2) next.push_back(terms.back());
      terms = std::move(next);
    }
    EXPECT_EQ(y[static_cast<std::size_t>(s)].bits(), terms[0].bits()) << "sample " << s;
  }
  EXPECT_GT(result.cycles, static_cast<std::uint64_t>(samples));
  EXPECT_GT(result.fp_ops, 0u);
}

TEST(Simulator, StreamingMacDecimates) {
  const int taps = 5;
  const ov::Dfg dfg = ov::make_streaming_mac_kernel(0.5, taps);
  ov::OverlayArch arch;
  const ov::Compiled compiled = ov::compile(dfg, arch);
  const ov::Simulator simulator(compiled);

  std::map<std::string, std::vector<double>> inputs;
  for (int s = 0; s < taps * 3; ++s) {
    inputs["x"].push_back(1.0);
  }
  const ov::RunResult result = simulator.run_doubles(inputs);
  const auto& y = result.outputs.at("y");
  ASSERT_EQ(y.size(), 3u);
  for (const auto& v : y) {
    EXPECT_NEAR(v.to_double(), 0.5 * taps, 1e-6);
  }
  EXPECT_EQ(result.mac_ops, static_cast<std::uint64_t>(taps * 3));
}

TEST(Simulator, RejectsUnknownInputName) {
  const ov::Dfg dfg = ov::make_streaming_mac_kernel(1.0, 2);
  ov::OverlayArch arch;
  const ov::Compiled compiled = ov::compile(dfg, arch);
  const ov::Simulator simulator(compiled);
  std::map<std::string, std::vector<double>> inputs{{"bogus", {1.0}}};
  EXPECT_THROW(simulator.run_doubles(inputs), std::invalid_argument);
}

TEST(Backend, ConventionalBusTimeScalesWithWords) {
  const ov::Dfg dfg = ov::make_dot_product_kernel({1.0, 2.0});
  ov::OverlayArch arch;
  const ov::Compiled compiled = ov::compile(dfg, arch);
  const double t = ov::conventional_config_seconds(compiled.settings, arch);
  const std::size_t words = compiled.settings.register_words(arch).size();
  EXPECT_NEAR(t, static_cast<double>(words) * 100e-9, 1e-12);
}

TEST(Backend, ParameterizedReconfigurationCosts) {
  // Use the small half-precision format so the backend builds quickly.
  ov::OverlayArch arch;
  arch.rows = 2;
  arch.cols = 2;
  arch.format = sf::FpFormat::half_like();
  arch.counter_bits = 8;
  const ov::ParameterizedBackend backend(arch);

  EXPECT_GT(backend.ppc().stats().tunable_bits, 0u);
  const auto per_pe = backend.per_pe_cost();
  EXPECT_GT(per_pe.hwicap_seconds, 0.0);
  EXPECT_LT(per_pe.micap_seconds, per_pe.hwicap_seconds);

  // Same settings -> no dirty frames.
  const ov::Dfg dfg = ov::make_streaming_mac_kernel(0.75, 9);
  const ov::Compiled compiled = ov::compile(dfg, arch);
  const auto same = backend.reconfigure_cost(compiled.settings, compiled.settings);
  EXPECT_EQ(same.frames, 0u);

  // Changed coefficient -> dirty frames bounded by the full per-PE cost.
  const ov::Dfg dfg2 = ov::make_streaming_mac_kernel(-0.33, 9);
  const ov::Compiled compiled2 = ov::compile(dfg2, arch);
  const auto change = backend.reconfigure_cost(compiled.settings, compiled2.settings);
  EXPECT_GT(change.frames, 0u);
  EXPECT_LE(change.frames, backend.ppc().stats().frames);
  EXPECT_LE(change.hwicap_seconds, backend.full_config_cost(compiled2.settings).hwicap_seconds);
}

TEST(Backend, FullConfigCoversAllUsedPes) {
  ov::OverlayArch arch;
  arch.rows = 2;
  arch.cols = 2;
  arch.format = sf::FpFormat{4, 7};
  arch.counter_bits = 6;
  const ov::ParameterizedBackend backend(arch);
  const ov::Dfg dfg = ov::make_dot_product_kernel({1.0, -1.0});
  const ov::Compiled compiled = ov::compile(dfg, arch);
  const auto cost = backend.full_config_cost(compiled.settings);
  EXPECT_EQ(cost.frames, 3u * backend.ppc().stats().frames);  // 2 muls + 1 add
}
