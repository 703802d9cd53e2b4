import warnings

import pytest

from kecscope.depgraph import extract_dependencies
from kecscope.generator import GenConfig, generate_accelerator
from kecscope.netlist import parse_netlist

# When a hypothesis test fails, hypothesis imports this module to write its
# failing-example patch, and the libcst it imports may warn with a
# DeprecationWarning; under -W error that warning would end the session
# with an INTERNALERROR and hide every later failure. Imported once here,
# with that warning ignored, it is in sys.modules before any test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching
    except ImportError:
        pass

# hand-built 3-flip-flop chain: PI -> INV -> ffa; XOR(ffa, ffb) -> ffc
CHAIN_3FF = """\
module chain
input pi
input clk
output po
net n1
net qa
net qb
net qc
net nx
cell INV i1 a=pi y=n1
cell DFF ffa d=n1 clk=clk q=qa
cell DFF ffb d=pi clk=clk q=qb
cell XOR2 x1 a=qa b=qb y=nx
cell DFF ffc d=nx clk=clk q=qc
cell BUF b1 a=qc y=po
endmodule
"""


@pytest.fixture
def chain3():
    return parse_netlist(CHAIN_3FF)


@pytest.fixture(scope="session")
def oracle_w8():
    netlist, truth = generate_accelerator(GenConfig(w=8, decoy_ffs=600, seed=3))
    return netlist, truth


@pytest.fixture(scope="session")
def oracle_w8_graph(oracle_w8):
    return extract_dependencies(oracle_w8[0])


@pytest.fixture(scope="session")
def oracle_w64():
    netlist, truth = generate_accelerator(GenConfig(w=64, decoy_ffs=3000, seed=7))
    return netlist, truth


@pytest.fixture(scope="session")
def oracle_w64_graph(oracle_w64):
    return extract_dependencies(oracle_w64[0])
