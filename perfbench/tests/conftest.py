import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE.parent, HERE.parent.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
