"""The package's value records: built by keyword, read by attribute, printed as before.

Bracket, ScalarInvariants, PinchVerdict, ModelSpec, ContractionReport,
ExtremalStructure, DdvvReport and MaximizeResult are named tuples.  Their
keyword construction, attribute reads and repr text are those of the frozen
dataclasses they replaced, and they stay read-only.  As tuples they also
iterate, compare by value, and hash only when every field does.
"""

import numpy as np
import pytest

from rigidity.curvature import Bracket, ScalarInvariants
from rigidity.ddvv import DdvvReport, ExtremalStructure, MaximizeResult
from rigidity.models import ModelSpec
from rigidity.pinching import PinchVerdict
from rigidity.simons import ContractionReport

BRACKET = {"lo": 0.25, "hi": 0.5}
EYE = "array([[1., 0.],\n       [0., 1.]])"

# (record, keyword fields, the repr the frozen dataclass printed)
RECORDS = [
    (Bracket, BRACKET, "Bracket(lo=0.25, hi=0.5)"),
    (ScalarInvariants, {"S": 1.5, "H": 0.5, "S_H": None, "S_I": None, "R_scal": 2.0},
     "ScalarInvariants(S=1.5, H=0.5, S_H=None, S_I=None, R_scal=2.0)"),
    (PinchVerdict, {"theorem": "thm1", "threshold": 0.25, "kmin_bracket": Bracket(**BRACKET),
                    "status": "strict", "label": "Undetermined", "notes": ("minimal",)},
     "PinchVerdict(theorem='thm1', threshold=0.25, kmin_bracket=Bracket(lo=0.25, hi=0.5), "
     "status='strict', label='Undetermined', notes=('minimal',))"),
    (ModelSpec, {"kind": "veronese"},
     "ModelSpec(kind='veronese', n=None, p=None, k=None, c=1.0, H=0.0)"),
    (ModelSpec, {"kind": "product-of-spheres", "n": 4, "k": 2, "c": 2.0},
     "ModelSpec(kind='product-of-spheres', n=4, p=None, k=2, c=2.0, H=0.0)"),
    (ContractionReport, {"T_curv": 1.0, "N_comm": 0.5, "G_sq": 2.0, "T_mixed": None,
                         "restriction": (0, 1)},
     "ContractionReport(T_curv=1.0, N_comm=0.5, G_sq=2.0, T_mixed=None, restriction=(0, 1))"),
    (ExtremalStructure, {"active": (0, 1), "mu": 0.5, "normal_rotation": np.eye(2),
                         "tangent_rotation": np.eye(2), "offplane_frac": 0.0,
                         "match_residual": 0.0},
     f"ExtremalStructure(active=(0, 1), mu=0.5, normal_rotation={EYE}, "
     f"tangent_rotation={EYE}, offplane_frac=0.0, match_residual=0.0)"),
    (DdvvReport, {"lhs": 1.0, "rhs": 1.0, "ratio": 1.0, "equality": True},
     "DdvvReport(lhs=1.0, rhs=1.0, ratio=1.0, equality=True, extremal_structure=None)"),
    (MaximizeResult, {"tuple": np.zeros((2, 2, 2)), "ratio": 0.0, "history": []},
     "MaximizeResult(tuple=array([[[0., 0.],\n        [0., 0.]],\n\n       [[0., 0.],\n"
     "        [0., 0.]]]), ratio=0.0, history=[])"),
]
IDS = [f"{record.__name__}-{k}" for k, (record, _, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_keywords_attributes_and_repr(record, fields, text):
    value = record(**fields)
    for name, field in fields.items():
        assert getattr(value, name) is field
    assert repr(value) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_read_only(record, fields, text):
    value = record(**fields)
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)


def test_tuple_behaviour():
    b = Bracket(**BRACKET)
    lo, hi = b
    assert (lo, hi) == (0.25, 0.5) and b == Bracket(lo=0.25, hi=0.5) == (0.25, 0.5)
    assert hash(b) == hash((0.25, 0.5))
    with pytest.raises(TypeError):   # an ndarray field is unhashable
        hash(MaximizeResult(tuple=np.zeros((2, 2, 2)), ratio=0.0, history=()))
