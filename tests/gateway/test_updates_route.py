"""``POST /v1/deployments/{name}/updates``: the live-traffic ingest route."""

from __future__ import annotations

import pytest

from repro.api import create_engine
from repro.exceptions import NoTrafficControllerError
from repro.traffic import TrafficController

from _asgi import call


@pytest.fixture()
def controller(gateway_host, gateway_app):
    with TrafficController(gateway_host, "prod") as ctl:
        gateway_app.attach_controller(ctl)
        yield ctl


def _delay_payload(delay=60.0, **extra):
    return {"updates": [{"source": 0, "target": 1, "delay": delay}], **extra}


class TestIngest:
    def test_delay_form_is_accepted_and_queued(self, gateway_app, controller):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload=_delay_payload(),
        )
        assert result.status == 202
        body = result.json()
        assert body["deployment"] == "prod"
        assert body["ingested"] == 1
        assert body["pending_stream"] == 1
        assert controller.stream.pending == 1

    def test_explicit_function_form(self, gateway_app, controller, small_grid):
        weight = small_grid.weight(0, 5).shift(120.0)
        payload = {
            "updates": [
                {
                    "source": 0,
                    "target": 5,
                    "times": [float(t) for t in weight.times],
                    "costs": [float(c) for c in weight.costs],
                }
            ]
        }
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates", payload=payload
        )
        assert result.status == 202
        assert result.json()["ingested"] == 1
        (queued,) = controller.stream.drain()
        assert queued.edge == (0, 5)
        assert queued.weight.allclose(weight)

    def test_apply_true_runs_a_step_and_reports_it(
        self, gateway_app, gateway_host, controller, small_grid
    ):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload=_delay_payload(delay=300.0, apply=True),
        )
        assert result.status == 200
        applied = result.json()["applied"]
        assert applied["action"] == "clone_swap"
        assert applied["coalesced_edges"] == 1
        assert applied["staleness_max_s"] >= 0.0
        # The repair really landed: answers match a fresh-rebuild oracle.
        shadow = small_grid.copy()
        shadow.set_weight(0, 1, shadow.weight(0, 1).shift(300.0))
        oracle = create_engine("td-h2h", shadow)
        assert (
            gateway_host.query("prod", 0, 1, 0.0) == oracle.query(0, 1, 0.0).cost
        )

    def test_batched_mixed_forms(self, gateway_app, controller, small_grid):
        weight = small_grid.weight(0, 5)
        payload = {
            "updates": [
                {"source": 0, "target": 1, "delay": 60.0},
                {
                    "source": 0,
                    "target": 5,
                    "times": [float(t) for t in weight.times],
                    "costs": [float(c) for c in weight.costs],
                },
            ]
        }
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates", payload=payload
        )
        assert result.status == 202
        assert result.json()["ingested"] == 2


class TestErrors:
    def test_no_controller_attached_is_404(self, gateway_app):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload=_delay_payload(),
        )
        assert result.status == 404
        assert result.json()["error"]["type"] == "NoTrafficControllerError"

    def test_unknown_edge_is_404(self, gateway_app, controller):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload={"updates": [{"source": 0, "target": 999, "delay": 5.0}]},
        )
        assert result.status == 404
        assert result.json()["error"]["type"] == "EdgeNotFoundError"

    def test_missing_forms_is_400(self, gateway_app, controller):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload={"updates": [{"source": 0, "target": 1}]},
        )
        assert result.status == 400

    def test_both_forms_is_400(self, gateway_app, controller):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload={
                "updates": [
                    {"source": 0, "target": 1, "delay": 5.0, "times": [0.0],
                     "costs": [1.0]}
                ]
            },
        )
        assert result.status == 400

    def test_invalid_function_is_400(self, gateway_app, controller):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload={
                "updates": [
                    {"source": 0, "target": 1, "times": [0.0, 10.0],
                     "costs": [5.0, -1.0]}
                ]
            },
        )
        assert result.status == 400
        assert result.json()["error"]["type"] == "InvalidFunctionError"

    def test_empty_updates_is_400(self, gateway_app, controller):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload={"updates": []},
        )
        assert result.status == 400

    def test_oversized_batch_is_400(self, gateway_host, controller):
        from repro.gateway import GatewayApp, GatewayConfig

        app = GatewayApp(gateway_host, config=GatewayConfig(max_updates=1))
        app.attach_controller(controller)
        result = call(
            app, "POST", "/v1/deployments/prod/updates",
            payload={
                "updates": [
                    {"source": 0, "target": 1, "delay": 1.0},
                    {"source": 1, "target": 0, "delay": 1.0},
                ]
            },
        )
        assert result.status == 400
        assert "limit" in result.json()["error"]["message"]

    def test_wrong_method_is_405(self, gateway_app, controller):
        assert call(gateway_app, "GET", "/v1/deployments/prod/updates").status == 405

    def test_nonboolean_apply_is_400(self, gateway_app, controller):
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload=_delay_payload(apply="yes"),
        )
        assert result.status == 400


class TestAttachment:
    def test_detach_unregisters(self, gateway_app, controller):
        detached = gateway_app.detach_controller("prod")
        assert detached is controller
        result = call(
            gateway_app, "POST", "/v1/deployments/prod/updates",
            payload=_delay_payload(),
        )
        assert result.status == 404

    def test_detach_unknown_raises_with_available_names(self, gateway_app):
        with pytest.raises(NoTrafficControllerError) as excinfo:
            gateway_app.detach_controller("ghost")
        assert excinfo.value.deployment == "ghost"
