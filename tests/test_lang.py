"""Frontend tests: lexer, parser, sema, and lowering-by-execution."""

import pytest

from repro.lang import compile_minic, parse, tokenize
from repro.lang.lexer import LexError
from repro.lang.lower import LoweringError
from repro.lang.parser import ParseError
from repro.lang.sema import SemaError, check
from repro.ir.validate import IRValidationError, validate_module
from repro.pm.batch import allocation_artifact
from repro.sim import simulate
from repro.target import tiny


def run(source: str, machine=None):
    machine = machine or tiny(8, 8)
    module = compile_minic(source, machine)
    validate_module(module)
    return simulate(module, machine)


class TestLexer:
    def test_token_kinds(self):
        toks = tokenize("func int x1 = 3 + 4.5; // comment\nwhile")
        kinds = [(t.kind, t.text) for t in toks]
        assert ("kw", "func") in kinds
        assert ("ident", "x1") in kinds
        assert ("int", "3") in kinds
        assert ("float", "4.5") in kinds
        assert kinds[-1] == ("eof", "")
        assert not any(text == "comment" for _, text in kinds)

    def test_two_char_operators(self):
        toks = tokenize("<= >= == != && ||")
        assert [t.text for t in toks[:-1]] == ["<=", ">=", "==", "!=",
                                               "&&", "||"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 4]

    def test_lex_error(self):
        with pytest.raises(LexError, match="line 2"):
            tokenize("ok\n@")

    def test_scientific_floats(self):
        toks = tokenize("1e3 2.5e-2")
        assert [t.kind for t in toks[:-1]] == ["float", "float"]


class TestParser:
    def test_precedence(self):
        # 2 + 3 * 4 == 14, not 20; comparisons bind looser.
        out = run("func int main() { print 2 + 3 * 4; "
                  "print 1 + 1 == 2; return 0; }")
        assert out.output == [14, 1]

    def test_parenthesized_override(self):
        out = run("func int main() { print (2 + 3) * 4; return 0; }")
        assert out.output == [20]

    def test_else_if_chain(self):
        src = """
        func int classify(int x) {
          if (x < 0) { return 0 - 1; }
          else if (x == 0) { return 0; }
          else { return 1; }
        }
        func int main() {
          print classify(0 - 5); print classify(0); print classify(9);
          return 0;
        }
        """
        assert run(src).output == [-1, 0, 1]

    def test_parse_errors(self):
        for bad in (
            "func int main() { return 0 }",           # missing ;
            "func main() { }",                        # missing type
            "global int a[]; func int main(){return 0;}",
            "func int main() { int = 3; return 0; }",
        ):
            with pytest.raises(ParseError):
                parse(bad)

    def test_for_with_empty_sections(self):
        src = """
        func int main() {
          int n = 0;
          for (; n < 3;) { n = n + 1; }
          print n;
          return 0;
        }
        """
        assert run(src).output == [3]


class TestSema:
    def check_fails(self, src, pattern):
        with pytest.raises(SemaError, match=pattern):
            check(parse(src))

    def test_undeclared_variable(self):
        self.check_fails("func int main() { return x; }", "undeclared")

    def test_duplicate_declaration(self):
        self.check_fails(
            "func int main() { int x = 1; int x = 2; return x; }",
            "duplicate")

    def test_shadowing_in_inner_scope_allowed(self):
        src = """
        func int main() {
          int x = 1;
          if (x == 1) { int x = 2; print x; }
          print x;
          return 0;
        }
        """
        assert run(src).output == [2, 1]

    def test_float_to_int_requires_cast(self):
        self.check_fails("func int main() { int x = 1.5; return x; }",
                         "cannot use float")

    def test_int_to_float_is_implicit(self):
        assert run("func int main() { float f = 3; print f; return 0; }"
                   ).output == [3.0]

    def test_modulo_is_integer_only(self):
        self.check_fails("func int main() { print 1.5 % 2.0; return 0; }",
                         "needs ints")

    def test_condition_must_be_int(self):
        self.check_fails("func int main() { if (1.0) { } return 0; }",
                         "must be int")

    def test_void_as_value_rejected(self):
        self.check_fails(
            "func void f() { return; } "
            "func int main() { int x = f(); return x; }",
            "used as a value")

    def test_arity_checked(self):
        self.check_fails(
            "func int f(int a) { return a; } "
            "func int main() { return f(1, 2); }",
            "takes 1 arguments")

    def test_unknown_function(self):
        self.check_fails("func int main() { return g(); }", "unknown function")

    def test_main_required(self):
        self.check_fails("func int f() { return 0; }", "no 'main'")

    def test_unknown_array(self):
        self.check_fails("func int main() { return a[0]; }", "unknown array")

    def test_return_type_checked(self):
        self.check_fails("func void f() { return 3; } "
                         "func int main() { return 0; }",
                         "returns a value")


class TestExecution:
    def test_recursion(self):
        src = """
        func int fib(int n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        func int main() { print fib(12); return 0; }
        """
        assert run(src).output == [144]

    def test_global_arrays_and_loops(self):
        src = """
        global int squares[10];
        func int main() {
          for (int i = 0; i < 10; i = i + 1) { squares[i] = i * i; }
          int total = 0;
          for (int i = 0; i < 10; i = i + 1) { total = total + squares[i]; }
          print total;
          return total;
        }
        """
        assert run(src).output == [285]

    def test_float_arithmetic_and_casts(self):
        src = """
        func int main() {
          float x = 7.0;
          float y = 2.0;
          print x / y;
          print int(x / y);
          print float(3) * 0.5;
          return 0;
        }
        """
        assert run(src).output == [3.5, 3, 1.5]

    def test_logicals_are_normalized(self):
        src = """
        func int main() {
          int a = 7;
          int b = 0;
          print a && a;   // 1, not 7
          print a || b;
          print !a;
          print !(a && b);
          return 0;
        }
        """
        assert run(src).output == [1, 1, 0, 1]

    def test_implicit_return_values(self):
        src = """
        func int weird(int x) { if (x > 0) { return 1; } }
        func int main() { print weird(1); print weird(0 - 1); return 0; }
        """
        assert run(src).output == [1, 0]

    def test_unreachable_code_after_return_dropped(self):
        src = """
        func int main() { return 5; print 99; }
        """
        out = run(src)
        assert out.output == []
        assert out.result == 5

    def test_mixed_class_call(self):
        src = """
        func float scale(int n, float f) { return float(n) * f; }
        func int main() { print scale(4, 2.5); return 0; }
        """
        assert run(src).output == [10.0]

    def test_too_many_params_for_machine(self):
        src = ("func int f(int a, int b, int c) { return a + b + c; } "
               "func int main() { return f(1, 2, 3); }")
        with pytest.raises(LoweringError, match="parameters"):
            compile_minic(src, tiny(8, 8))  # tiny has 2 param regs


class TestTempNumberingBound:
    """The minic door honours the same liveness-mask bound as parsed IR:
    every block keeps masks as wide as the highest temporary id."""

    def test_over_bound_module_is_refused(self):
        # 3,000 locals (a temp id each), then y live through 1,500
        # branches (two blocks each): blocks x ids is over 2**24.
        decls = "".join(f"int a{i} = {i};\n" for i in range(3000))
        body = "if (y > 0) { y = y + 1; }\n" * 1500
        source = (f"func int main() {{\n{decls}int y = 1;\n{body}"
                  "print y;\nreturn 0;\n}\n")
        with pytest.raises(IRValidationError, match="exceeds"):
            compile_minic(source)
        artifact = allocation_artifact(
            {"minic": source, "machine": "alpha", "allocator": "coloring"})
        assert artifact["error"]["code"] == "parse-error"
