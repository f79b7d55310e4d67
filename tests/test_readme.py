"""README's library quick tour runs as written against the package, and its
example configs pass the option tables."""

import json
import re
from pathlib import Path

from cavitylab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md quick tour", "exec"), {})


def test_readme_example_configs_resolve():
    section = README.read_text().split("Example configs:", 1)[1].split("\n## ", 1)[0]
    configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]
    experiments = ["prepare-cat", "decoherence-scan", "wigner-map", "tomography"]
    assert len(configs) == len(experiments)
    for experiment, config in zip(experiments, configs):
        cli.resolve_config(experiment, config)
