"""The eleven benchmark analogs (Table 1/2, Figure 3 workloads).

The paper evaluates on SPEC92 (alvinn, doduc, eqntott, espresso, fpppp,
li, tomcatv), SPEC95 (compress, m88ksim) and two UNIX utilities (sort,
wc).  We cannot compile SPEC sources, so each analog is a minic program
chosen to reproduce the *register-pressure signature* that drives the
paper's results for that benchmark — see DESIGN.md Section 6 for the
mapping rationale.  Highlights:

* ``fpppp`` — enormous straight-line floating-point blocks with dozens of
  simultaneously-live values: the only benchmark where both allocators
  spill heavily (18.6% / 13.4% of dynamic instructions in the paper).
* ``wc`` — a hot loop with many scalars live across a call: the paper's
  showcase for second chance (two-pass binpacking ran 38% slower).
* ``eqntott`` — almost all time in a tiny compare routine with few
  temporaries: no spilling, so differences come from moves alone.

Use :func:`program_source` / :func:`build_program`; ``PROGRAM_NAMES``
lists them in the paper's Table 1 order.
"""

from __future__ import annotations

from repro.ir.module import Module
from repro.lang.lower import compile_minic
from repro.target.alpha import alpha
from repro.target.machine import MachineDescription

# ----------------------------------------------------------------------
# alvinn: neural-net training (FP array sweeps, very low pressure).
# ----------------------------------------------------------------------
_ALVINN = """
global float input[32];
global float hidden[8];
global float w1[256];
global float w2[8];
global float deltas[8];

func void init() {
  for (int i = 0; i < 32; i = i + 1) {
    input[i] = float(i % 7) * 0.25 - 0.5;
  }
  for (int i = 0; i < 256; i = i + 1) {
    w1[i] = float((i * 37) % 11) * 0.1 - 0.5;
  }
  for (int i = 0; i < 8; i = i + 1) {
    w2[i] = float(i) * 0.125;
  }
  return;
}

func float forward() {
  float out = 0.0;
  for (int h = 0; h < 8; h = h + 1) {
    float acc = 0.0;
    for (int i = 0; i < 32; i = i + 1) {
      acc = acc + input[i] * w1[h * 32 + i];
    }
    float act = acc / (1.0 + acc * acc);
    hidden[h] = act;
    out = out + act * w2[h];
  }
  return out;
}

func void backward(float err) {
  for (int h = 0; h < 8; h = h + 1) {
    float d = err * w2[h];
    deltas[h] = d;
    w2[h] = w2[h] + 0.05 * err * hidden[h];
    for (int i = 0; i < 32; i = i + 1) {
      w1[h * 32 + i] = w1[h * 32 + i] + 0.05 * d * input[i];
    }
  }
  return;
}

func int main() {
  init();
  float target = 0.75;
  float out = 0.0;
  for (int epoch = 0; epoch < 24; epoch = epoch + 1) {
    out = forward();
    backward(target - out);
  }
  print out;
  float checksum = 0.0;
  for (int i = 0; i < 256; i = i + 1) { checksum = checksum + w1[i]; }
  print checksum;
  return 0;
}
"""

# ----------------------------------------------------------------------
# doduc: Monte-Carlo-ish nuclear reactor kernel (many FP scalars).
# ----------------------------------------------------------------------
_DODUC = """
global float table[64];

func float advance(float x) {
  return (x * 1103.0 + 12345.0) / 65536.0 - float(int((x * 1103.0 + 12345.0) / 65536.0));
}

func int main() {
  for (int i = 0; i < 64; i = i + 1) {
    table[i] = float(i) * 0.015625;
  }
  float seed = 0.371;
  float energy = 1.0; float flux = 0.0; float absorb = 0.0;
  float leak = 0.0; float temp = 300.0; float pres = 1.0;
  float rho = 0.72; float mu = 0.11; float sigma = 0.43; float beta = 0.0065;
  for (int step = 0; step < 600; step = step + 1) {
    seed = advance(seed);
    float r = seed;
    int bin = int(r * 64.0) % 64;
    float xs = table[bin];
    float path = 1.0 / (sigma + xs + 0.001);
    if (r < beta * 10.0) {
      absorb = absorb + energy * xs * path;
      energy = energy * 0.97;
    } else {
      if (r < 0.5) {
        flux = flux + energy * path * mu;
        temp = temp + energy * 0.001;
      } else {
        leak = leak + energy * path * (1.0 - rho);
        pres = pres + leak * 0.0001;
      }
    }
    float k = (flux + absorb) / (leak + 1.0);
    energy = energy + (k - energy) * 0.05;
    sigma = sigma + (temp - 300.0) * 0.00001;
    mu = mu * 0.9999 + beta;
    rho = rho + (pres - 1.0) * 0.0001;
  }
  print energy; print flux; print absorb; print leak;
  print temp; print pres; print rho; print sigma;
  return 0;
}
"""

# ----------------------------------------------------------------------
# eqntott: time dominated by a tiny compare routine (cmppt).
# ----------------------------------------------------------------------
_EQNTOTT = """
global int pterms[512];

func int cmppt(int a, int b) {
  int i = 0;
  while (i < 4) {
    int x = pterms[a * 4 + i];
    int y = pterms[b * 4 + i];
    if (x < y) { return 0 - 1; }
    if (x > y) { return 1; }
    i = i + 1;
  }
  return 0;
}

func int main() {
  for (int i = 0; i < 512; i = i + 1) {
    pterms[i] = (i * 193 + 71) % 64;
  }
  int inversions = 0;
  for (int i = 0; i < 96; i = i + 1) {
    for (int j = 0; j < 96; j = j + 1) {
      if (cmppt(i, j) > 0) { inversions = inversions + 1; }
    }
  }
  print inversions;
  return inversions;
}
"""

# ----------------------------------------------------------------------
# espresso: boolean-cover manipulation (int set ops, branchy loops).
# ----------------------------------------------------------------------
_ESPRESSO = """
global int cover[256];
global int care[256];

func int count_ones(int word) {
  int n = 0;
  while (word != 0) {
    n = n + (word % 2 + 2) % 2;
    word = word / 2;
    if (word < 0) { word = 0 - word; }
  }
  return n;
}

func int main() {
  for (int i = 0; i < 256; i = i + 1) {
    cover[i] = (i * 2654435761) % 65536;
    care[i] = (i * 40503 + 661) % 65536;
  }
  int literals = 0; int cubes = 0; int merged = 0;
  for (int pass = 0; pass < 4; pass = pass + 1) {
    for (int i = 0; i < 255; i = i + 1) {
      int a = cover[i];
      int b = cover[i + 1];
      int mask = care[i];
      int inter = a * 0; // placeholder kept live across the branches
      inter = (a / 2) * 2; // even part
      int dist = count_ones((a + b) % 65536);
      if (dist < 8) {
        merged = merged + 1;
        cover[i] = (a + b + inter) % 65536;
      } else {
        if (count_ones(a % (mask + 1)) > count_ones(b % (mask + 1))) {
          cover[i] = b;
        }
      }
      literals = literals + dist;
      cubes = cubes + count_ones(mask % 256);
    }
  }
  print literals; print cubes; print merged;
  int checksum = 0;
  for (int i = 0; i < 256; i = i + 1) { checksum = (checksum + cover[i]) % 1000003; }
  print checksum;
  return checksum;
}
"""

# ----------------------------------------------------------------------
# li: a tiny lisp-ish evaluator over a cons heap (recursive, call-heavy).
# ----------------------------------------------------------------------
_LI = """
global int heap[1024];

// cons cells: heap[2k] = car, heap[2k+1] = cdr (0 = nil, negative = number)

func int cons(int car, int cdr, int k) {
  heap[2 * k] = car;
  heap[2 * k + 1] = cdr;
  return k;
}

func int sumlist(int cell) {
  if (cell == 0) { return 0; }
  int car = heap[2 * cell];
  int rest = sumlist(heap[2 * cell + 1]);
  if (car < 0) { return (0 - car) + rest; }
  return sumlist(car) + rest;
}

func int listlen(int cell) {
  int n = 0;
  while (cell != 0) {
    n = n + 1;
    cell = heap[2 * cell + 1];
  }
  return n;
}

func int main() {
  // Build lists: list k = (-k . list (k-1)) for k in 1..100
  int head = 0;
  for (int k = 1; k <= 100; k = k + 1) {
    head = cons(0 - k, head, k);
  }
  // A nested list: (list1 list2 ... ) every 10th
  int nested = 0;
  for (int k = 10; k <= 100; k = k + 10) {
    nested = cons(k, nested, 100 + k / 10);
  }
  int total = 0;
  for (int round = 0; round < 16; round = round + 1) {
    total = total + sumlist(head) + sumlist(nested) + listlen(head);
  }
  print total;
  return total;
}
"""

# ----------------------------------------------------------------------
# tomcatv: 2-D vectorized mesh generation (FP stencil loops).
# ----------------------------------------------------------------------
_TOMCATV = """
global float x[400];
global float y[400];
global float rx[400];
global float ry[400];

func int main() {
  int n = 20;
  for (int i = 0; i < n; i = i + 1) {
    for (int j = 0; j < n; j = j + 1) {
      x[i * n + j] = float(i) + float(j) * 0.01;
      y[i * n + j] = float(j) - float(i) * 0.01;
    }
  }
  float rxm = 0.0; float rym = 0.0;
  for (int iter = 0; iter < 8; iter = iter + 1) {
    rxm = 0.0; rym = 0.0;
    for (int i = 1; i < n - 1; i = i + 1) {
      for (int j = 1; j < n - 1; j = j + 1) {
        float xx = x[i * n + j + 1] - x[i * n + j - 1];
        float yx = y[i * n + j + 1] - y[i * n + j - 1];
        float xy = x[(i + 1) * n + j] - x[(i - 1) * n + j];
        float yy = y[(i + 1) * n + j] - y[(i - 1) * n + j];
        float a = 0.25 * (xy * xy + yy * yy);
        float b = 0.25 * (xx * xx + yx * yx);
        float c = 0.125 * (xx * xy + yx * yy);
        float qi = 0.0; float qj = 0.0;
        qi = a * (x[i * n + j + 1] + x[i * n + j - 1]);
        qi = qi + b * (x[(i + 1) * n + j] + x[(i - 1) * n + j]);
        qi = qi - c * (x[(i + 1) * n + j + 1] - x[(i - 1) * n + j + 1]);
        qj = a * (y[i * n + j + 1] + y[i * n + j - 1]);
        qj = qj + b * (y[(i + 1) * n + j] + y[(i - 1) * n + j]);
        qj = qj - c * (y[(i + 1) * n + j + 1] - y[(i - 1) * n + j + 1]);
        float denom = 2.0 * (a + b) + 0.0001;
        float nx = qi / denom;
        float ny = qj / denom;
        rx[i * n + j] = nx - x[i * n + j];
        ry[i * n + j] = ny - y[i * n + j];
        float ax = rx[i * n + j]; if (ax < 0.0) { ax = 0.0 - ax; }
        float ay = ry[i * n + j]; if (ay < 0.0) { ay = 0.0 - ay; }
        if (ax > rxm) { rxm = ax; }
        if (ay > rym) { rym = ay; }
      }
    }
    for (int i = 1; i < n - 1; i = i + 1) {
      for (int j = 1; j < n - 1; j = j + 1) {
        x[i * n + j] = x[i * n + j] + rx[i * n + j] * 0.5;
        y[i * n + j] = y[i * n + j] + ry[i * n + j] * 0.5;
      }
    }
  }
  print rxm; print rym;
  float checksum = 0.0;
  for (int k = 0; k < 400; k = k + 1) { checksum = checksum + x[k] - y[k]; }
  print checksum;
  return 0;
}
"""

# ----------------------------------------------------------------------
# compress: LZW-flavoured hashing over a code table (long-lived ints).
# ----------------------------------------------------------------------
_COMPRESS = """
global int text[512];
global int codes[1024];
global int prefix[1024];

func int main() {
  for (int i = 0; i < 512; i = i + 1) {
    text[i] = (i * 31 + i / 7) % 27;
  }
  for (int i = 0; i < 1024; i = i + 1) { codes[i] = 0 - 1; prefix[i] = 0; }
  int next_code = 256;
  int current = text[0];
  int emitted = 0;
  int collisions = 0;
  for (int pos = 1; pos < 512; pos = pos + 1) {
    int symbol = text[pos];
    int key = (current * 256 + symbol) % 1024;
    int probes = 0;
    int found = 0 - 1;
    while (probes < 8 && found < 0) {
      int slot = (key + probes * probes) % 1024;
      if (codes[slot] == current * 256 + symbol) {
        found = prefix[slot];
      } else {
        if (codes[slot] < 0) {
          codes[slot] = current * 256 + symbol;
          prefix[slot] = next_code;
          next_code = next_code + 1;
          probes = 99;
        } else {
          collisions = collisions + 1;
        }
      }
      probes = probes + 1;
    }
    if (found >= 0) {
      current = found;
    } else {
      emitted = emitted + 1;
      current = symbol;
    }
  }
  print emitted; print collisions; print next_code;
  return emitted;
}
"""

# ----------------------------------------------------------------------
# m88ksim: a tiny CPU interpreter (decode dispatch, int state machine).
# ----------------------------------------------------------------------
_M88KSIM = """
global int mem[256];
global int regs[16];

func int main() {
  // A hand-assembled program for the interpreted machine:
  //   op 1 = addi rd, rs, imm ; op 2 = add rd, rs, rt ; op 3 = beq-back
  //   op 4 = load rd, [rs]    ; op 5 = store rs -> [rd]; op 0 = halt
  // encoding: op*4096 + rd*256 + rs*16 + rt/imm
  mem[0] = 1 * 4096 + 1 * 256 + 0 * 16 + 0;   // r1 = r0 + 0
  mem[1] = 1 * 4096 + 2 * 256 + 0 * 16 + 10;  // r2 = r0 + 10 (counter)
  mem[2] = 1 * 4096 + 3 * 256 + 0 * 16 + 7;   // r3 = 7
  mem[3] = 2 * 4096 + 1 * 256 + 1 * 16 + 3;   // r1 = r1 + r3
  mem[4] = 5 * 4096 + 4 * 256 + 1 * 16 + 0;   // mem[r4] = r1
  mem[5] = 1 * 4096 + 4 * 256 + 4 * 16 + 1;   // r4 = r4 + 1
  mem[6] = 1 * 4096 + 2 * 256 + 2 * 16 + 15;  // r2 = r2 - 1 (imm 15 = -1 mod 16)
  mem[7] = 3 * 4096 + 0 * 256 + 2 * 16 + 4;   // if r2 != 0 jump back 4
  mem[8] = 0;                                  // halt
  int cycles = 0;
  for (int run = 0; run < 120; run = run + 1) {
    for (int i = 0; i < 16; i = i + 1) { regs[i] = 0; }
    regs[4] = 64;
    int pc = 0;
    int halted = 0;
    while (halted == 0 && cycles < 100000) {
      int word = mem[pc];
      int op = word / 4096;
      int rd = (word / 256) % 16;
      int rs = (word / 16) % 16;
      int rt = word % 16;
      pc = pc + 1;
      cycles = cycles + 1;
      if (op == 0) { halted = 1; }
      else { if (op == 1) {
        int imm = rt; if (imm > 7) { imm = imm - 16; }
        regs[rd] = regs[rs] + imm;
      } else { if (op == 2) {
        regs[rd] = regs[rs] + regs[rt];
      } else { if (op == 3) {
        if (regs[rs] != 0) { pc = pc - rt; }
      } else { if (op == 4) {
        regs[rd] = mem[regs[rs] % 256];
      } else { if (op == 5) {
        mem[regs[rd] % 256] = regs[rs];
      } } } } } }
    }
  }
  print cycles;
  int checksum = 0;
  for (int i = 64; i < 80; i = i + 1) { checksum = checksum + mem[i]; }
  print checksum;
  return cycles;
}
"""

# ----------------------------------------------------------------------
# sort: recursive quicksort (UNIX sort analog).
# ----------------------------------------------------------------------
_SORT = """
global int data[512];

func void quicksort(int lo, int hi) {
  if (lo >= hi) { return; }
  int pivot = data[(lo + hi) / 2];
  int i = lo;
  int j = hi;
  while (i <= j) {
    while (data[i] < pivot) { i = i + 1; }
    while (data[j] > pivot) { j = j - 1; }
    if (i <= j) {
      int t = data[i];
      data[i] = data[j];
      data[j] = t;
      i = i + 1;
      j = j - 1;
    }
  }
  quicksort(lo, j);
  quicksort(i, hi);
  return;
}

func int main() {
  for (int i = 0; i < 512; i = i + 1) {
    data[i] = (i * 1103515245 + 12345) % 4096;
  }
  quicksort(0, 511);
  int inversions = 0;
  for (int i = 1; i < 512; i = i + 1) {
    if (data[i - 1] > data[i]) { inversions = inversions + 1; }
  }
  print inversions;
  print data[0]; print data[255]; print data[511];
  return inversions;
}
"""

# ----------------------------------------------------------------------
# wc: word count with many scalars live across a call in the hot loop —
# the paper's second-chance showcase (Section 3.1).
# ----------------------------------------------------------------------
_WC = """
global int text[2048];
global int longest[1];

func int classify(int ch) {
  // stands in for the I/O helper wc calls once per character
  if (ch == 32) { return 0; }
  if (ch == 10) { return 2; }
  return 1;
}

func int main() {
  for (int i = 0; i < 2048; i = i + 1) {
    int r = (i * 48271) % 31;
    if (r < 6) { text[i] = 32; }        // space
    else { if (r < 8) { text[i] = 10; } // newline
    else { text[i] = 97 + r % 26; } }
  }
  // Mutable counters plus a couple of read-only configuration values,
  // all live throughout the hot loop (and therefore across the call) --
  // just past the callee-saved file, the Section 3.1 wc situation.
  int space = 32; int base_a = 97;
  int lines = 0; int words = 0; int chars = 0;
  int in_word = 0; int word_len = 0; int max_len = 0;
  int vowels = 0; int consonants = 0;
  for (int round = 0; round < 6; round = round + 1) {
    for (int i = 0; i < 2048; i = i + 1) {
      int ch = text[i];
      int kind = classify(ch);
      chars = chars + 1;
      if (kind == 2) { lines = lines + 1; }
      if (kind == 1) {
        if (in_word == 0) { words = words + 1; in_word = 1; word_len = 0; }
        word_len = word_len + 1;
        if (word_len > max_len) { max_len = word_len; }
        if (ch == base_a || ch == base_a + 4 || ch == base_a + 8
            || ch == base_a + 14 || ch == base_a + 20) {
          vowels = vowels + 1;
        } else { consonants = consonants + 1; }
      } else {
        in_word = 0;
        if (ch == space) { word_len = 0; }
      }
    }
  }
  longest[0] = max_len;
  print lines; print words; print chars;
  print vowels; print consonants; print max_len;
  return words;
}
"""


def _fpppp_source(n_chains: int = 52, chain_len: int = 4,
                  repeats: int = 40) -> str:
    """Generate the fpppp analog: huge straight-line FP blocks.

    ``n_chains`` values are computed up front and all stay live until a
    final combining block — with ``n_chains`` comfortably above the 32
    floating-point registers, both allocators must spill (the paper
    reports fpppp as the one benchmark with double-digit spill
    percentages).
    """
    lines = ["global float seeds[64];", "",
             "func float block(float s) {"]
    for i in range(n_chains):
        lines.append(f"  float v{i} = s * {1.0 + i * 0.03:.4f} + "
                     f"seeds[{i % 64}];")
    # Several update phases: every value is rewritten repeatedly while all
    # of them stay live, so elided stores are rare and both allocators pay
    # real spill traffic (fpppp is the paper's heavy-spill benchmark).
    for phase in range(3):
        for i in range(n_chains):
            prev = f"v{(i + 1 + phase) % n_chains}"
            expr = f"v{i}"
            for j in range(chain_len):
                other = f"v{(i + j * 7 + phase * 3 + 1) % n_chains}"
                expr = f"({expr} * 0.875 + {other} * 0.125)"
            lines.append(f"  v{i} = {expr} - {prev} * 0.001;")
    combine = " + ".join(f"v{i}" for i in range(n_chains))
    lines.append(f"  return {combine};")
    lines.append("}")
    lines.append("""
func int main() {
  for (int i = 0; i < 64; i = i + 1) { seeds[i] = float(i) * 0.01 - 0.3; }
  float acc = 0.0;
  float s = 1.0;
  for (int r = 0; r < %d; r = r + 1) {
    acc = acc + block(s);
    s = s * 0.999 + 0.001;
  }
  print acc;
  return 0;
}
""" % repeats)
    return "\n".join(lines)


#: Sources keyed by benchmark name, in the paper's Table 1 order.
PROGRAM_SOURCES: dict[str, str] = {
    "alvinn": _ALVINN,
    "doduc": _DODUC,
    "eqntott": _EQNTOTT,
    "espresso": _ESPRESSO,
    "fpppp": _fpppp_source(),
    "li": _LI,
    "tomcatv": _TOMCATV,
    "compress": _COMPRESS,
    "m88ksim": _M88KSIM,
    "sort": _SORT,
    "wc": _WC,
}

#: Table 1 ordering.
PROGRAM_NAMES: list[str] = list(PROGRAM_SOURCES)


def program_source(name: str) -> str:
    """The minic source of one analog."""
    try:
        return PROGRAM_SOURCES[name]
    except KeyError:
        raise KeyError(f"unknown benchmark analog {name!r}; "
                       f"choose from {PROGRAM_NAMES}") from None


def build_program(name: str,
                  machine: MachineDescription | None = None) -> Module:
    """Compile one analog to IR for ``machine`` (default: alpha)."""
    return compile_minic(program_source(name), machine or alpha())
